package repro.exp

import org.apache.spark.sql.SparkSession

/** Shared benchmark scaffolding: scale knobs, adaptive timing, and table
  * formatting. All bench datasets scale with REPRO_SCALE (default 1.0).
  */
object Scale {
  val factor: Double = sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)
  private def sc(base: Long): Long = math.max(100L, (base * factor).toLong)

  def ldbcPersons: Long = sc(15000)
  def flickrNodes: Long = sc(60000)
  def wikiNodes: Long = sc(10000)
  def imdbTitles: Long = sc(25000)
  // Larger than the LLC so random accesses miss, as on the paper's 220M-row
  // column — the J-NULL vs uncompressed gap hides under DRAM latency.
  def nullColumnSize: Int = sc(8000000).toInt
  def nullColumnAccesses: Int = sc(2000000).toInt

  // Table 3 runs only 1-/2-hop queries, so it can afford graphs whose
  // property arrays exceed the LLC — required to expose the sequential-vs-
  // random access gap the paper measures on LDBC100-sized data.
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

object Timing {

  /** Milliseconds for one evaluation of `f` (result discarded). */
  def once[A](f: => A): Double = {
    val t0 = System.nanoTime()
    f
    (System.nanoTime() - t0) / 1e6
  }

  /** Adaptive repetition, echoing the paper's protocol (5 runs, average of
    * the last 3) but bounded for long-running configurations: fast queries
    * get 1 warmup + 3 timed runs; slow ones fewer.
    */
  def timeMs[A](f: => A): Double = {
    val first = once(f)
    if (first < 100) {
      // Sub-100ms runs: extra JIT warmup, then best-of-5 — GC pauses from
      // the in-process Spark session otherwise dominate ms-scale medians.
      once(f); once(f)
      Seq.fill(5)(once(f)).min
    } else if (first < 1000) {
      Seq.fill(3)(once(f)).min
    } else if (first < 10000) {
      (first + once(f)) / 2
    } else first
  }

  def fmt(ms: Double): String =
    if (ms >= 100) f"$ms%.0f" else if (ms >= 10) f"$ms%.1f" else f"$ms%.2f"
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

/** Entry-point helper shared by jobs/ mains. */
object JobMain {
  def session(): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-bench")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
