package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.datasets.{ImdbLite, LdbcLite}

/** Table 2 (a: LDBC, b: IMDb): memory of each storage component after each
  * optimization step GF-RV → +COLS → +NEW-IDS → +0-SUPR → +NULL (GF-CL),
  * with the step-over-step reduction factors the paper reports.
  */
object Table2Memory {

  final case class Row(component: String, bytesPerConfig: Seq[Long]) {
    def factors: Seq[Double] =
      bytesPerConfig.sliding(2).map { case Seq(a, b) => a.toDouble / b }.toSeq
    def totalFactor: Double = bytesPerConfig.head.toDouble / bytesPerConfig.last
  }

  final case class Result(dataset: String, rows: Seq[Row]) {
    def row(c: String): Row = rows.find(_.component == c).get
  }

  def run(spark: SparkSession, dataset: String, data: GraphData): Result = {
    val collected = GraphLoader.collect(data)
    val stores = StorageConfig.ladder.map(c => GraphLoader.build(collected, c))
    def mk(name: String, f: GraphStore => Long) = Row(name, stores.map(f))
    Result(dataset, Seq(
      mk("Vertex Props", _.vertexPropBytes),
      mk("Edge Props", _.edgePropBytes),
      mk("F. Adj. Lists", _.fwdAdjBytes),
      mk("B. Adj. Lists", _.bwdAdjBytes),
      mk("Total", _.totalBytes)))
  }

  def render(r: Result): String = {
    val t = new TablePrinter(s"Table 2 — memory (MB) on ${r.dataset}")
    t.row("component" +: StorageConfig.ladder.map(_.name) :+ "GF-RV/GF-CL": _*)
    r.rows.foreach { row =>
      t.row((row.component +:
        row.bytesPerConfig.map(b => f"${b / 1e6}%.2f")) :+ f"${row.totalFactor}%.2fx": _*)
    }
    t.row(("step factor" +: "" +: r.rows.last.factors.map(f => f"+$f%.2fx")) :+ "": _*)
    t.printOut()
  }

  def runAll(spark: SparkSession): Seq[Result] = Seq(
    run(spark, "LDBC-lite", LdbcLite(spark, Scale.ldbcPersons)),
    run(spark, "IMDb-lite", ImdbLite(spark, Scale.imdbTitles)))
}
