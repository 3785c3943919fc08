package repro.datasets

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Shared Spark generators for synthetic graph datasets. The data depend only
  * on (scale, seed), so every engine (and DuckDB) sees identical data on any
  * machine: Spark seeds `rand(seed)` per partition, and every table starts
  * from [[range]], whose partition count is fixed rather than the core count.
  */
object GenUtil {

  /** Partitions of every generated table (part of what the data depend on). */
  val Partitions = 4

  /** Row ids `0 until n` in [[Partitions]] partitions, as column `id`. */
  def range(spark: SparkSession, n: Long): DataFrame =
    spark.range(0, n, 1, Partitions).toDF()

  /** A property's value domain: the random generator draws from it, and a
    * planted row takes its values from it in domain order.
    */
  sealed trait Domain {
    /** The non-NULL values, in domain order. */
    def values: Iterator[Any]
    /** A random column over the domain. */
    def column(seed: Long): Column
  }

  /** Dictionary words, see [[dictCol]]. */
  final case class Words(words: Seq[String], nullFrac: Double = 0.0) extends Domain {
    def values: Iterator[Any] = words.iterator
    def column(seed: Long): Column = dictCol(words, seed, nullFrac)
  }

  /** Longs in `[lo, hi)`, see [[longCol]]. */
  final case class Longs(lo: Long, hi: Long, nullFrac: Double = 0.0) extends Domain {
    def values: Iterator[Any] = (lo until hi).iterator
    def column(seed: Long): Column = longCol(lo, hi, seed, nullFrac)
  }

  /** Capped-Pareto out-degrees: mean ~ `avg`, power-law tail, hard cap so
    * k-hop counts stay bounded at bench scale (real graphs in the paper are
    * power-law, Guideline 2).
    */
  def paretoDeg(seed: Long, avg: Double, cap: Int, beta: Double = 2.0): Column = {
    val dmin = math.max(1.0, avg * (beta - 1) / beta)
    least(lit(cap.toLong),
      (lit(dmin) * pow(lit(1.0) / (rand(seed) + lit(1e-12)), lit(1.0 / beta))).cast("long"))
  }

  /** n-n edge table (src, dst): per-source capped-Pareto out-degree, mildly
    * skewed destination choice (`inSkew` > 1 concentrates in-degree on low
    * offsets, giving skewed backward lists too).
    */
  def nnEdges(spark: SparkSession, nSrc: Long, nDst: Long, avgDeg: Double, cap: Int,
              seed: Long, inSkew: Double = 1.5): DataFrame = {
    import spark.implicits._
    range(spark, nSrc)
      .select($"id" as "src", paretoDeg(seed, avgDeg, cap) as "deg")
      .where($"deg" > 0)
      .select($"src", explode(sequence(lit(0L), $"deg" - 1)) as "j")
      .select(
        $"src",
        (pow(rand(seed + 7) + lit(1e-12), lit(inSkew)) * nDst).cast("long") as "dst")
  }

  /** Single-cardinality (n-1) edge table: each source in a `presence`
    * fraction has exactly one uniformly chosen destination.
    */
  def singleEdges(spark: SparkSession, nSrc: Long, nDst: Long, presence: Double,
                  seed: Long): DataFrame = {
    import spark.implicits._
    range(spark, nSrc)
      .where(rand(seed) < presence)
      .select($"id" as "src", (rand(seed + 7) * nDst).cast("long") as "dst")
  }

  /** 1-n edge table: each of `nChild` destinations has exactly one uniformly
    * chosen source among `nParent`.
    */
  def oneNEdges(spark: SparkSession, nChild: Long, nParent: Long, seed: Long): DataFrame = {
    import spark.implicits._
    range(spark, nChild).select((rand(seed) * nParent).cast("long") as "src", $"id" as "dst")
  }

  /** Pick a dictionary value per row: `words(i)` with roughly uniform
    * frequency, NULL with probability `nullFrac`.
    */
  def dictCol(words: Seq[String], seed: Long, nullFrac: Double = 0.0): Column = {
    val arr = array(words.map(lit): _*)
    val picked = element_at(arr, (rand(seed) * words.length + 1).cast("int"))
    if (nullFrac > 0) when(rand(seed + 13) < nullFrac, lit(null)).otherwise(picked)
    else picked
  }

  /** Uniform long in [lo, hi), NULL with probability `nullFrac`. */
  def longCol(lo: Long, hi: Long, seed: Long, nullFrac: Double = 0.0): Column = {
    val v = (rand(seed) * (hi - lo) + lo).cast("long")
    if (nullFrac > 0) when(rand(seed + 13) < nullFrac, lit(null)).otherwise(v) else v
  }
}
