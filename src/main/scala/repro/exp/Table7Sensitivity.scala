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
    // Vanilla (no rank index: linear popcount scans) reads a slice of the
    // accesses, checked on the plain column; its time is scaled up.
    val nVan = math.max(1, acc.length / 512)
    var r = Result(Map.empty, Map.empty, Map.empty, Map.empty)
    for (rho <- densities) {
      val d = dense(n, rho, rho)
      val cols = cms.map { case (c, m) => NullCompressedColumn(d, c, m) }
      // Uncompressed: the store's plain column, the read path a query uses.
      val unc = repro.storage.VColumn(d, suppress = false, nullCompress = false)
      val van = VanillaNullColumn(d)
      // Each read loop has its own call site, so each timed loop stays monomorphic.
      def uncSum(count: Int): Long = {
        var s = 0L
        var i = 0
        while (i < count) { s += unc.get(acc(i)); i += 1 }
        s
      }
      val Seq(all, slice) = Timing.table(Seq(
        Timing.Cell(s"rho=$rho", cms.zip(cols).map { case ((c, m), col) =>
          s"J-NULL $c,$m" -> { () =>
            var s = 0L
            var i = 0
            while (i < acc.length) { s += col.get(acc(i)); i += 1 }
            s
          }
        } :+ ("Uncompressed" -> (() => uncSum(acc.length)))),
        Timing.Cell(s"rho=$rho Vanilla slice", Seq("Vanilla" -> { () =>
          var s = 0L
          var i = 0
          while (i < nVan) { s += van.get(acc(i)); i += 1 }
          s
        }, "Uncompressed" -> (() => uncSum(nVan))))))
      val (t, k) = (slice.samples.head, acc.length.toDouble / nVan)
      r = Result(r.runtimeMs ++ cms.map((rho, _)).zip(all.samples),
        if (rho == 50) cms.zip(cols.map(_.indexBytes / 1e6)).toMap else r.overheadMb,
        r.uncompressedMs + (rho -> all.samples.last),
        r.vanillaMsScaled + (rho -> t.copy(median = t.median * k, min = t.min * k, max = t.max * k)))
    }
    r
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
