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

  final case class Cell(dataset: String, plan: String, config: String, hops: Int, count: Long, ms: Sample)
  final case class Result(cells: Seq[Cell]) {
    def ms(ds: String, plan: String, config: String, hops: Int): Sample =
      cells.find(c => c.dataset == ds && c.plan == plan && c.config == config && c.hops == hops).get.ms
  }

  private val systems = for (plan <- Seq("P_F", "P_B"); config <- Seq("COL_E", "PAGE_P")) yield (plan, config)

  private def datasets(spark: SparkSession): Seq[(String, CollectedGraph, String, String, String)] = Seq(
    ("LDBC", GraphLoader.collect(LdbcLite(spark, Scale.t3LdbcPersons)), "knows", "person", "creationDate"),
    ("WIKI", GraphLoader.collect(SocialGraph.wikiLite(spark, Scale.t3WikiNodes)), "link", "node", "since"),
    ("FLICKR", GraphLoader.collect(SocialGraph.flickrLite(spark, Scale.t3FlickrNodes)), "link", "node", "since")
  )

  def run(spark: SparkSession): Result = {
    // One checked cell per (dataset, hops): all four plans count the same paths.
    val keyed = datasets(spark).flatMap { case (name, collected, edgeLabel, vLabel, prop) =>
      val stores = Map("COL_E" -> GraphLoader.build(collected, StorageConfig.GFCL.copy(edgeColumns = true)),
        "PAGE_P" -> GraphLoader.build(collected, StorageConfig.GFCL))
      Seq(1, 2).map { hops =>
        (name, hops) -> Timing.Cell(s"$name ${hops}H", systems.map { case (plan, config) =>
          val q =
            if (hops == 1) MicroQueries.khop(edgeLabel, vLabel, 1, plan == "P_F", Some(1_200_000_000L), prop)
            else MicroQueries.twoHopCrossPred(edgeLabel, vLabel, prop, plan == "P_F")
          s"$plan $config" -> (() => Lbp.count(stores(config), q))
        })
      }
    }
    Result(keyed.zip(Timing.table(keyed.map(_._2))).flatMap { case (((name, hops), _), t) =>
      systems.zip(t.samples).map { case ((plan, config), ms) => Cell(name, plan, config, hops, t.value, ms) }
    })
  }

  def render(r: Result): String = {
    val t = new TablePrinter("Table 3 — k-hop runtime (ms): property pages vs edge columns")
    val cols = for (ds <- Seq("LDBC", "WIKI", "FLICKR"); h <- 1 to 2) yield (ds, h)
    t.row(Seq("plan", "config") ++ cols.map { case (ds, h) => s"$ds ${h}H" }: _*)
    for ((plan, config) <- systems)
      t.row(Seq(plan, config) ++ cols.map { case (ds, h) => Timing.fmt(r.ms(ds, plan, config, h)) }: _*)
    for (plan <- Seq("P_F", "P_B"))
      t.row(Seq(plan, "COL_E/PAGE_P") ++ cols.map { case (ds, h) =>
        f"${r.ms(ds, plan, "COL_E", h).median / r.ms(ds, plan, "PAGE_P", h).median}%.1fx"
      }: _*)
    t.printOut()
  }
}
