package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.datasets.GenUtil
import repro.engine.Lbp

/** Table 4: vertex columns vs 2-level CSR for single-cardinality edges
  * (LDBC `replyOf`, ~50 % empty forward lists), uncompressed and
  * NULL-compressed: 1/2/3-hop count(*) runtime + storage of the label.
  */
object Table4SingleCard {

  final case class Row(config: String, ms: Seq[Sample], memMb: Double)
  final case class Result(rows: Seq[Row], counts: Seq[Long]) {
    def row(c: String): Row = rows.find(_.config == c).get
  }

  private val configs = Seq(
    "CSR-UNC" -> StorageConfig.ZSUPR.copy(singleCardAsCsr = true),
    "V-COL-UNC" -> StorageConfig.ZSUPR,
    "CSR-C" -> StorageConfig.GFCL.copy(singleCardAsCsr = true),
    "V-COL-C" -> StorageConfig.GFCL)

  /** Dedicated comment/replyOf graph: the workload only touches this label
    * (paper: LDBC100's 220M Comment vertices, 50.5 % empty forward lists),
    * so it is generated at large scale independently of the full LDBC data.
    */
  def replyOfGraph(spark: SparkSession, nComments: Long): GraphData = {
    import spark.implicits._
    val schema = GraphSchema(
      vertices = IndexedSeq(VertexDef("comment", IndexedSeq(
        PropertyDef("id", PLongT), PropertyDef("creationDate", PLongT)))),
      edges = IndexedSeq(EdgeDef("replyOfComment", "comment", "comment", NOne, IndexedSeq.empty)))
    val comment = GenUtil.range(spark, nComments).select(
      $"id" as "vid", ($"id" * 13 + 5) as "id",
      GenUtil.longCol(1_000_000_000L, 1_400_000_000L, 91) as "creationDate")
    val edges = GenUtil.singleEdges(spark, nComments, nComments, presence = 0.5, seed = 92)
    GraphData(schema, Map("comment" -> comment), Map("replyOfComment" -> edges))
  }

  def run(spark: SparkSession): Result = {
    val collected = GraphLoader.collect(replyOfGraph(spark, Scale.t4Comments))
    val label = collected.schema.edgeIdx("replyOfComment")
    val stores = configs.map { case (name, config) => name -> GraphLoader.build(collected, config) }
    val timed = Timing.table((1 to 3).map { hops =>
      val q = MicroQueries.khop("replyOfComment", "comment", hops, forward = true, filtered = None)
      Timing.Cell(s"$hops-hop", stores.map { case (name, store) => name -> (() => Lbp.count(store, q)) })
    })
    Result(stores.zip(timed.map(_.samples).transpose).map { case ((name, store), ms) =>
      Row(name, ms, store.labelBytes(label) / 1e6) }, timed.map(_.value))
  }

  def render(r: Result): String = {
    val t = new TablePrinter("Table 4 — single-cardinality edges: vertex columns vs CSR (replyOf)")
    t.row("config", "1-hop (ms)", "2-hop (ms)", "3-hop (ms)", "Mem (MB)")
    r.rows.foreach(row => t.row(row.config +: row.ms.map(Timing.fmt) :+ f"${row.memMb}%.2f": _*))
    def ratio(a: String, b: String) = {
      val (ra, rb) = (r.row(a), r.row(b))
      (a + "/" + b) +: ra.ms.zip(rb.ms).map { case (x, y) => f"${x.median / y.median}%.2fx" } :+
        f"${ra.memMb / rb.memMb}%.2fx"
    }
    t.row(ratio("CSR-UNC", "V-COL-UNC"): _*)
    t.row(ratio("CSR-C", "V-COL-C"): _*)
    t.printOut()
  }
}
