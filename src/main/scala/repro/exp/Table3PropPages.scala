package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.datasets.{LdbcLite, SocialGraph}
import repro.engine.Lbp

/** Table 3: single-indexed property pages (PAGE_P) vs randomly-ordered edge
  * columns (COL_E) on 1-/2-hop queries with edge-property predicates, under
  * forward (P_F) and backward (P_B) plans. Forward plans over PAGE_P read
  * properties sequentially in list order; everything else is random access.
  */
object Table3PropPages {

  final case class Cell(dataset: String, plan: String, config: String, hops: Int, ms: Sample)
  final case class Result(cells: Seq[Cell]) {
    def ms(ds: String, plan: String, config: String, hops: Int): Sample =
      cells.find(c => c.dataset == ds && c.plan == plan && c.config == config && c.hops == hops).get.ms
  }

  private def datasets(spark: SparkSession): Seq[(String, CollectedGraph, String, String, String)] = Seq(
    ("LDBC", GraphLoader.collect(LdbcLite(spark, Scale.t3LdbcPersons)), "knows", "person", "creationDate"),
    ("WIKI", GraphLoader.collect(SocialGraph.wikiLite(spark, Scale.t3WikiNodes)), "link", "node", "since"),
    ("FLICKR", GraphLoader.collect(SocialGraph.flickrLite(spark, Scale.t3FlickrNodes)), "link", "node", "since")
  )

  def run(spark: SparkSession): Result = {
    val cells = scala.collection.mutable.ArrayBuffer.empty[Cell]
    for ((name, collected, edgeLabel, vLabel, prop) <- datasets(spark)) {
      val pageStore = GraphLoader.build(collected, StorageConfig.GFCL)
      val colStore = GraphLoader.build(collected, StorageConfig.GFCL.copy(edgeColumns = true))
      for (forward <- Seq(true, false); (store, config) <- Seq((colStore, "COL_E"), (pageStore, "PAGE_P"))) {
        val q1 = MicroQueries.khop(edgeLabel, vLabel, 1, forward, Some(1_200_000_000L), prop)
        val q2 = MicroQueries.twoHopCrossPred(edgeLabel, vLabel, prop, forward)
        val plan = if (forward) "P_F" else "P_B"
        cells += Cell(name, plan, config, 1, Timing.measure(Lbp.count(store, q1)))
        cells += Cell(name, plan, config, 2, Timing.measure(Lbp.count(store, q2)))
      }
    }
    Result(cells.toSeq)
  }

  def render(r: Result): String = {
    val t = new TablePrinter("Table 3 — k-hop runtime (ms): property pages vs edge columns")
    t.row("plan", "config", "LDBC 1H", "LDBC 2H", "WIKI 1H", "WIKI 2H", "FLICKR 1H", "FLICKR 2H")
    for (plan <- Seq("P_F", "P_B"); config <- Seq("COL_E", "PAGE_P")) {
      t.row(plan, config,
        Timing.fmt(r.ms("LDBC", plan, config, 1)), Timing.fmt(r.ms("LDBC", plan, config, 2)),
        Timing.fmt(r.ms("WIKI", plan, config, 1)), Timing.fmt(r.ms("WIKI", plan, config, 2)),
        Timing.fmt(r.ms("FLICKR", plan, config, 1)), Timing.fmt(r.ms("FLICKR", plan, config, 2)))
    }
    def sp(ds: String, plan: String, h: Int) =
      f"${r.ms(ds, plan, "COL_E", h).median / r.ms(ds, plan, "PAGE_P", h).median}%.1fx"
    for (plan <- Seq("P_F", "P_B"))
      t.row(plan, "COL_E/PAGE_P",
        sp("LDBC", plan, 1), sp("LDBC", plan, 2), sp("WIKI", plan, 1),
        sp("WIKI", plan, 2), sp("FLICKR", plan, 1), sp("FLICKR", plan, 2))
    t.printOut()
  }
}
