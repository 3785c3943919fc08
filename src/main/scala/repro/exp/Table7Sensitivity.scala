package repro.exp

import repro.compress.{NullCompressedColumn, VanillaNullColumn}
import repro.core.Values

/** Tables 7 and 8 (appendix A.2): sensitivity of the Jacobson NULL
  * compression scheme to (c, m).
  *
  * The measured access pattern mirrors the paper's query
  * `MATCH (a:Person)-[e:Likes]->(b:Comment) RETURN b.creationDate`:
  * random reads of a 220M-row (here scaled) creationDate column at varying
  * non-NULL density ρ. Table 7 reports runtime per (c, m); Table 8 the
  * index overhead (bit string + prefix sums) in MB. Also reports the
  * Figure 10 comparison points: Uncompressed and Vanilla-NULL.
  */
object Table7Sensitivity {

  val cms: Seq[(Int, Int)] = for (c <- Seq(8, 16); m <- Seq(8, 16, 24, 32)) yield (c, m)
  val densities: Seq[Int] = Seq(100, 90, 80, 70, 60, 50, 40, 30, 20, 10)

  final case class Result(
      runtimeMs: Map[(Int, (Int, Int)), Sample], // (rho, (c,m)) -> ms
      overheadMb: Map[(Int, Int), Double],       // (c,m) -> MB at rho=50
      uncompressedMs: Map[Int, Sample],          // rho -> ms
      vanillaMsScaled: Map[Int, Sample])         // rho -> ms (normalized to full access count)

  private def dense(n: Int, rho: Int, seed: Int): Array[Long] = {
    val rnd = new java.util.Random(seed)
    Array.fill(n)(if (rnd.nextInt(100) < rho) 1_000_000_000L + rnd.nextInt(400_000_000)
                  else Values.Null)
  }

  private def accesses(n: Int, count: Int, seed: Int): Array[Int] = {
    val rnd = new java.util.Random(seed)
    Array.fill(count)(rnd.nextInt(n))
  }

  def run(): Result = {
    val n = Scale.nullColumnSize
    val acc = accesses(n, Scale.nullColumnAccesses, 99)
    var runtime = Map.empty[(Int, (Int, Int)), Sample]
    var overhead = Map.empty[(Int, Int), Double]
    var uncMs = Map.empty[Int, Sample]
    var vanMs = Map.empty[Int, Sample]

    for (rho <- densities) {
      val d = dense(n, rho, rho)
      for ((c, m) <- cms) {
        val col = NullCompressedColumn(d, c, m)
        val ms = Timing.measure {
          var s = 0L
          var i = 0
          while (i < acc.length) { s += col.get(acc(i)); i += 1 }
          s
        }
        runtime += (rho, (c, m)) -> ms
        if (rho == 50) overhead += (c, m) -> col.indexBytes / 1e6
      }
      // Uncompressed: the store's plain column structure (fixed-width
      // values, sentinel NULLs) — the same read path a query would use.
      val unc = repro.storage.VColumn(d, suppress = false, nullCompress = false)
      uncMs += rho -> Timing.measure {
        var s = 0L
        var i = 0
        while (i < acc.length) { s += unc.get(acc(i)); i += 1 }
        s
      }
      // Vanilla (no rank index): linear popcount scans — measured on a small
      // slice of the accesses and scaled to the full count.
      val van = VanillaNullColumn(d)
      val vanAccesses = math.max(1, acc.length / 512)
      val t = Timing.measure {
        var s = 0L
        var i = 0
        while (i < vanAccesses) { s += van.get(acc(i)); i += 1 }
        s
      }
      val k = acc.length.toDouble / vanAccesses
      vanMs += rho -> t.copy(median = t.median * k, min = t.min * k, max = t.max * k)
    }
    Result(runtime, overhead, uncMs, vanMs)
  }

  def render(r: Result): String = {
    val t = new TablePrinter("Table 7 — J-NULL runtime (ms) per (c,m), plus Figure 10 baselines")
    t.row(Seq("rho") ++ cms.map { case (c, m) => s"$c,$m" } ++ Seq("Uncompr.", "Vanilla(scaled)"): _*)
    densities.foreach { rho =>
      t.row(Seq(rho.toString) ++ cms.map(cm => Timing.fmt(r.runtimeMs((rho, cm)))) ++
        Seq(Timing.fmt(r.uncompressedMs(rho)), Timing.fmt(r.vanillaMsScaled(rho))): _*)
    }
    val t8 = new TablePrinter("Table 8 — J-NULL index overhead (MB) at rho=50")
    t8.row(cms.map { case (c, m) => s"$c,$m" }: _*)
    t8.row(cms.map(cm => f"${r.overheadMb(cm)}%.1f"): _*)
    t.printOut() + t8.printOut()
  }
}
