package repro.exp

/** Shared benchmark scaffolding: scale knobs, the timing protocol, and
  * table formatting. All bench datasets scale with REPRO_SCALE (default 1.0).
  */
object Scale {
  val factor: Double = sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)
  private def sc(base: Long): Long = math.max(100L, (base * factor).toLong)

  def ldbcPersons: Long = sc(15000)
  def flickrNodes: Long = sc(60000)
  def wikiNodes: Long = sc(10000)
  def imdbTitles: Long = sc(25000)
  // Table 7's column: 8M entries of 4 bytes, 32 MB at scale 1. The paper's
  // 220M-row column misses the LLC; this one fits the 105 MiB L3 of the
  // 4-vCPU Xeon host it was measured on, so there the J-NULL vs
  // uncompressed gap is a cache-resident one.
  def nullColumnSize: Int = sc(8000000).toInt
  def nullColumnAccesses: Int = sc(2000000).toInt

  // Table 3 runs only 1-/2-hop queries, so it affords larger graphs than
  // Table 5. At scale 1 their GF-CL edge-property arrays hold 8.3 MB (LDBC
  // `knows`, 2.08M edges), 24.0 MB (WIKI, 5.99M) and 18.8 MB (FLICKR,
  // 4.71M): all fit the 105 MiB L3 of the 4-vCPU Xeon host they were
  // measured on, unlike the paper's LDBC100-sized data, whose random reads
  // miss it.
  def t3LdbcPersons: Long = sc(120000)
  def t3FlickrNodes: Long = sc(350000)
  def t3WikiNodes: Long = sc(150000)

  // Table 4's replyOf chains are single-cardinality: work scales with the
  // comment count only, so use a dedicated large comment graph.
  def t4Comments: Long = sc(3000000)

  // Table 6 LDBC queries anchor on a single person: a larger graph keeps
  // per-query engine work above the timer floor.
  def t6LdbcPersons: Long = sc(50000)
}

/** One timing of a table cell: median, min and max milliseconds over `n`
  * timed calls.
  */
final case class Sample(median: Double, min: Double, max: Double, n: Int)

object Sample {
  /** Summarise timed calls; the median of an even count is the mean of the
    * middle two.
    */
  def of(ms: Array[Double]): Sample = {
    require(ms.nonEmpty, "a sample needs at least one timing")
    val s = ms.sorted
    val n = s.length
    val median = if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    Sample(median, s(0), s(n - 1), n)
  }
}

/** The one timing protocol of every table runner. [[Timing.table]] calls
  * every body once and requires each cell's systems to agree; then it makes
  * `WarmUps` untimed calls of every body; then `Runs` timed calls, each
  * checked against the agreed value after the clock stops. Both counts are
  * fixed, so every "ms" cell of every table is the same statistic.
  */
object Timing {
  final val WarmUps = 2
  final val Runs = 5

  /** A table cell: systems whose bodies must return the same value. */
  final case class Cell(label: String, systems: Seq[(String, () => Long)])
  /** A cell's agreed value, and one [[Sample]] per system in its order. */
  final case class Timed(value: Long, samples: Seq[Sample])

  def table(cells: Seq[Cell]): Seq[Timed] = {
    val values = cells.map { c =>
      val got = c.systems.map { case (name, f) => (name, f()) }
      require(got.map(_._2).distinct.size == 1,
        s"${c.label}: systems disagree: ${got.map { case (name, v) => s"$name=$v" }.mkString(" ")}")
      got.head._2
    }
    for (c <- cells; (_, f) <- c.systems; _ <- 1 to WarmUps) f()
    cells.zip(values).map { case (c, value) =>
      Timed(value, c.systems.map { case (name, f) =>
        Sample.of(Array.fill(Runs) {
          val t0 = System.nanoTime()
          val v = f()
          val ms = (System.nanoTime() - t0) / 1e6
          require(v == value, s"${c.label}: $name returned $v on a timed call, not $value")
          ms
        })
      })
    }
  }

  /** Two decimals below 10, one below 100, judged on the rounded value. */
  private def fmt(ms: Double): String = {
    def at(decimals: Int) = s"%.${decimals}f".formatLocal(java.util.Locale.ROOT, ms)
    if (at(2).toDouble < 10) at(2) else if (at(1).toDouble < 100) at(1) else at(0)
  }

  /** `median [min-max]`, ASCII so it prints on any console encoding. */
  def fmt(s: Sample): String = s"${fmt(s.median)} [${fmt(s.min)}-${fmt(s.max)}]"
}

/** Aligned-column table printer for bench output. */
final class TablePrinter(title: String) {
  private val rows = scala.collection.mutable.ArrayBuffer.empty[Seq[String]]
  def row(cells: Any*): Unit = rows += cells.map(String.valueOf)
  def render(): String = {
    val widths = rows.map(_.map(_.length)).transpose.map(_.max)
    val sb = new StringBuilder
    sb.append(s"\n=== $title ===\n")
    rows.foreach { r =>
      sb.append(r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")).append('\n')
    }
    sb.toString
  }
  def printOut(): String = { val s = render(); println(s); s }
}
