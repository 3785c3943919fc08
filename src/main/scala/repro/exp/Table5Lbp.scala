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

  final case class Cell(dataset: String, kind: String, hops: Int, count: Long, cvMs: Sample, clMs: Sample) {
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
    val keyed = datasets(spark).flatMap { case (name, collected, edgeLabel, vLabel, prop) =>
      val store = GraphLoader.build(collected, StorageConfig.GFCL)
      for (hops <- 1 to 3; kind <- Seq("FILTER", "COUNT(*)")) yield {
        val filtered = if (kind == "FILTER") Some(1_200_000_000L) else None
        val q = MicroQueries.khop(edgeLabel, vLabel, hops, forward = true, filtered, prop)
        // Same plan, two processors over identical columnar storage.
        (name, kind, hops) -> Timing.Cell(s"$name $kind $hops-hop",
          Seq("GF-CL" -> (() => Lbp.count(store, q)), "GF-CV" -> (() => Volcano.count(store, q))))
      }
    }
    Result(keyed.zip(Timing.table(keyed.map(_._2))).map {
      case (((name, kind, hops), _), t) => Cell(name, kind, hops, t.value, cvMs = t.samples(1), clMs = t.samples(0))
    })
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
