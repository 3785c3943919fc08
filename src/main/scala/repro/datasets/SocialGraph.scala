package repro.datasets

import org.apache.spark.sql.SparkSession
import repro.core._

/** Power-law social/hyperlink graphs with a `since` timestamp edge property
  * — the FLICKR (avg degree ~14) and WIKI (avg degree ~41) stand-ins from
  * the paper's microbenchmarks (Konect datasets, Table 3/5).
  */
object SocialGraph {

  val schema: GraphSchema = GraphSchema(
    vertices = IndexedSeq(
      VertexDef("node", IndexedSeq(PropertyDef("id", PLongT)))
    ),
    edges = IndexedSeq(
      EdgeDef("link", "node", "node", NN, IndexedSeq(PropertyDef("since", PLongT)))
    )
  )

  def apply(spark: SparkSession, n: Long, avgDeg: Double, cap: Int, seed: Long): GraphData = {
    import spark.implicits._
    val verts = GenUtil.range(spark, n).select($"id" as "vid", $"id" as "id")
    val edges = GenUtil.nnEdges(spark, n, n, avgDeg, cap, seed)
      .withColumn("since", GenUtil.longCol(1_000_000_000L, 1_400_000_000L, seed + 31))
    GraphData(schema, Map("node" -> verts), Map("link" -> edges))
  }

  /** FLICKR stand-in: matches the paper's average degree of 14. */
  def flickrLite(spark: SparkSession, n: Long, seed: Long = 41): GraphData =
    apply(spark, n, avgDeg = 14, cap = 400, seed)

  /** WIKI stand-in: matches the paper's average degree of 41. */
  def wikiLite(spark: SparkSession, n: Long, seed: Long = 42): GraphData =
    apply(spark, n, avgDeg = 41, cap = 600, seed)
}
