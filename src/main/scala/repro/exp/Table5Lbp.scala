package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.datasets.{LdbcLite, SocialGraph}
import repro.engine.{Lbp, Volcano}

/** Table 5: list-based processor (GF-CL) vs Volcano over the same columnar
  * storage (GF-CV) on 1/2/3-hop paths — FILTER rows (predicate on the last
  * edge) and COUNT(*) rows (aggregation over factorized intermediates).
  */
object Table5Lbp {

  final case class Cell(dataset: String, kind: String, hops: Int, cvMs: Sample, clMs: Sample) {
    def speedup: Double = cvMs.median / clMs.median
  }
  final case class Result(cells: Seq[Cell]) {
    def cell(ds: String, kind: String, hops: Int): Cell =
      cells.find(c => c.dataset == ds && c.kind == kind && c.hops == hops).get
  }

  private def datasets(spark: SparkSession): Seq[(String, CollectedGraph, String, String, String)] = Seq(
    ("LDBC", GraphLoader.collect(LdbcLite(spark, Scale.ldbcPersons)), "knows", "person", "creationDate"),
    ("FLICKR", GraphLoader.collect(SocialGraph.flickrLite(spark, Scale.flickrNodes)), "link", "node", "since"),
    ("WIKI", GraphLoader.collect(SocialGraph.wikiLite(spark, Scale.wikiNodes)), "link", "node", "since")
  )

  def run(spark: SparkSession): Result = {
    val cells = scala.collection.mutable.ArrayBuffer.empty[Cell]
    for ((name, collected, edgeLabel, vLabel, prop) <- datasets(spark)) {
      val store = GraphLoader.build(collected, StorageConfig.GFCL)
      for (hops <- 1 to 3; kind <- Seq("FILTER", "COUNT(*)")) {
        val filtered = if (kind == "FILTER") Some(1_200_000_000L) else None
        val q = MicroQueries.khop(edgeLabel, vLabel, hops, forward = true, filtered, prop)
        // Same plan, two processors over identical columnar storage.
        val cl = Timing.measure(Lbp.count(store, q))
        val cv = Timing.measure(Volcano.count(store, q))
        cells += Cell(name, kind, hops, cv, cl)
      }
    }
    Result(cells.toSeq)
  }

  def render(r: Result): String = {
    val t = new TablePrinter("Table 5 — GF-CV (Volcano) vs GF-CL (LBP) runtime (ms)")
    t.row("dataset", "workload", "system", "1-hop", "2-hop", "3-hop")
    for (ds <- Seq("LDBC", "FLICKR", "WIKI"); kind <- Seq("FILTER", "COUNT(*)")) {
      val cs = (1 to 3).map(h => r.cell(ds, kind, h))
      t.row(Seq(ds, kind, "GF-CV") ++ cs.map(c => Timing.fmt(c.cvMs)): _*)
      t.row(Seq(ds, kind, "GF-CL") ++ cs.map(c => Timing.fmt(c.clMs)): _*)
      t.row(Seq(ds, kind, "speedup") ++ cs.map(c => f"${c.speedup}%.1fx"): _*)
    }
    t.printOut()
  }
}
