package repro.datasets

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** LDBC SNB-shaped synthetic dataset (paper §8.1 substitution).
  *
  * Matches the structural features the paper's experiments depend on:
  * fully structured labels/properties, 16 edge labels of which 9 are
  * single-cardinality (LDBC: 8/15), mostly-integer properties, a
  * `replyOfComment` edge whose forward lists are ~50 % empty (Table 4),
  * power-law `knows`/`likes` degrees, and person/comment anchors by `id`.
  *
  * All sizes scale with `nPersons`.
  */
object LdbcLite {

  private def P(name: String, t: PType = PLongT) = PropertyDef(name, t)

  val schema: GraphSchema = GraphSchema(
    vertices = IndexedSeq(
      VertexDef("person", IndexedSeq(
        P("id"), P("fName", PStringT), P("lName", PStringT), P("gender", PStringT),
        P("birthday"), P("creationDate"), P("locationIP", PStringT), P("browserUsed", PStringT))),
      VertexDef("comment", IndexedSeq(P("id"), P("creationDate"), P("length"))),
      VertexDef("post", IndexedSeq(P("id"), P("creationDate"), P("length"))),
      VertexDef("forum", IndexedSeq(P("id"), P("creationDate"))),
      VertexDef("org", IndexedSeq(P("name", PStringT), P("orgType", PStringT))),
      VertexDef("place", IndexedSeq(P("name", PStringT))),
      VertexDef("tag", IndexedSeq(P("name", PStringT))),
      VertexDef("tagclass", IndexedSeq(P("name", PStringT)))
    ),
    edges = IndexedSeq(
      EdgeDef("knows", "person", "person", NN, IndexedSeq(P("creationDate"))),
      EdgeDef("likes", "person", "comment", NN, IndexedSeq(P("creationDate"))),
      EdgeDef("hasCreator", "comment", "person", NOne, IndexedSeq.empty),
      EdgeDef("postHasCreator", "post", "person", NOne, IndexedSeq.empty),
      EdgeDef("replyOfComment", "comment", "comment", NOne, IndexedSeq.empty),
      EdgeDef("replyOfPost", "comment", "post", NOne, IndexedSeq.empty),
      EdgeDef("personIsLocatedIn", "person", "place", NOne, IndexedSeq.empty),
      EdgeDef("commentIsLocatedIn", "comment", "place", NOne, IndexedSeq.empty),
      EdgeDef("orgIsLocatedIn", "org", "place", NOne, IndexedSeq.empty),
      EdgeDef("workAt", "person", "org", NN, IndexedSeq(P("year"))),
      EdgeDef("studyAt", "person", "org", NOne, IndexedSeq(P("classYear"))),
      EdgeDef("hasModerator", "forum", "person", NOne, IndexedSeq.empty),
      EdgeDef("containerOf", "forum", "post", OneN, IndexedSeq.empty),
      EdgeDef("hasMember", "forum", "person", NN, IndexedSeq(P("joinDate"))),
      EdgeDef("hasTag", "post", "tag", NN, IndexedSeq.empty),
      EdgeDef("hasType", "tag", "tagclass", NOne, IndexedSeq.empty),
      EdgeDef("isSubclassOf", "tagclass", "tagclass", NOne, IndexedSeq.empty)
    )
  )

  /** Person `id` property of positional offset v (the anchor constant the
    * IS/IC queries use) — an affine map so id-scans must inspect values.
    */
  def personId(v: Long): Long = v * 37 + 11
  def commentId(v: Long): Long = v * 13 + 5

  def apply(spark: SparkSession, nPersons: Long, seed: Long = 7): GraphData = {
    import spark.implicits._
    val nP = nPersons
    val nC = nP * 8
    val nPost = nP * 2
    val nF = math.max(10L, nP / 5)
    val nO = math.max(50L, nP / 50)
    val nPl = 200L
    val nT = 500L
    val nTc = 50L

    val fNames = (0 until 100).map(i => f"fname$i%03d")
    val lNames = (0 until 200).map(i => f"lname$i%03d")
    val ips = (0 until 500).map(i => s"10.0.${i / 250}.${i % 250}")
    val browsers = Seq("Firefox", "Chrome", "Safari", "IE")

    val person = GenUtil.range(spark, nP).select(
      $"id" as "vid",
      ($"id" * 37 + 11) as "id",
      GenUtil.dictCol(fNames, seed + 1) as "fName",
      GenUtil.dictCol(lNames, seed + 2) as "lName",
      GenUtil.dictCol(Seq("male", "female"), seed + 3) as "gender",
      GenUtil.longCol(0, 25000, seed + 4) as "birthday",
      GenUtil.longCol(1_000_000_000L, 1_400_000_000L, seed + 5) as "creationDate",
      GenUtil.dictCol(ips, seed + 6) as "locationIP",
      GenUtil.dictCol(browsers, seed + 7, nullFrac = 0.2) as "browserUsed")

    val comment = GenUtil.range(spark, nC).select(
      $"id" as "vid",
      ($"id" * 13 + 5) as "id",
      GenUtil.longCol(1_000_000_000L, 1_400_000_000L, seed + 8) as "creationDate",
      GenUtil.longCol(1, 2000, seed + 9) as "length")

    val post = GenUtil.range(spark, nPost).select(
      $"id" as "vid",
      ($"id" * 17 + 3) as "id",
      GenUtil.longCol(1_000_000_000L, 1_400_000_000L, seed + 10) as "creationDate",
      GenUtil.longCol(1, 2000, seed + 11) as "length")

    val forum = GenUtil.range(spark, nF).select(
      $"id" as "vid", ($"id" * 7 + 1) as "id",
      GenUtil.longCol(1_000_000_000L, 1_400_000_000L, seed + 12) as "creationDate")

    val org = GenUtil.range(spark, nO).select(
      $"id" as "vid",
      concat(lit("org_"), $"id".cast("string")) as "name",
      GenUtil.dictCol(Seq("company", "university"), seed + 13) as "orgType")

    val place = GenUtil.range(spark, nPl).select(
      $"id" as "vid", concat(lit("place_"), $"id".cast("string")) as "name")
    val tag = GenUtil.range(spark, nT).select(
      $"id" as "vid", concat(lit("tag_"), $"id".cast("string")) as "name")
    val tagclass = GenUtil.range(spark, nTc).select(
      $"id" as "vid", concat(lit("tagclass_"), $"id".cast("string")) as "name")

    def withDate(df: DataFrame, col: String, s: Long): DataFrame =
      df.withColumn(col, GenUtil.longCol(1_000_000_000L, 1_400_000_000L, s))

    val edges = Map(
      "knows" -> withDate(GenUtil.nnEdges(spark, nP, nP, avgDeg = 18, cap = 400, seed + 20), "creationDate", seed + 21),
      "likes" -> withDate(GenUtil.nnEdges(spark, nP, nC, avgDeg = 20, cap = 400, seed + 22), "creationDate", seed + 23),
      "hasCreator" -> GenUtil.singleEdges(spark, nC, nP, presence = 1.0, seed + 24),
      "postHasCreator" -> GenUtil.singleEdges(spark, nPost, nP, presence = 1.0, seed + 25),
      // ~50 % of forward replyOf lists are empty, as in LDBC100 (Table 4).
      "replyOfComment" -> GenUtil.singleEdges(spark, nC, nC, presence = 0.5, seed + 26),
      "replyOfPost" -> GenUtil.singleEdges(spark, nC, nPost, presence = 0.45, seed + 27),
      "personIsLocatedIn" -> GenUtil.singleEdges(spark, nP, nPl, presence = 1.0, seed + 28),
      "commentIsLocatedIn" -> GenUtil.singleEdges(spark, nC, nPl, presence = 1.0, seed + 29),
      "orgIsLocatedIn" -> GenUtil.singleEdges(spark, nO, nPl, presence = 1.0, seed + 30),
      "workAt" -> GenUtil.nnEdges(spark, nP, nO, avgDeg = 2, cap = 5, seed + 31)
        .withColumn("year", GenUtil.longCol(1990, 2020, seed + 32)),
      "studyAt" -> GenUtil.singleEdges(spark, nP, nO, presence = 0.6, seed + 33)
        .withColumn("classYear", GenUtil.longCol(1990, 2020, seed + 34)),
      "hasModerator" -> GenUtil.singleEdges(spark, nF, nP, presence = 1.0, seed + 35),
      // Each post is contained in exactly one forum (1-n).
      "containerOf" -> GenUtil.oneNEdges(spark, nPost, nF, seed + 36),
      "hasMember" -> GenUtil.nnEdges(spark, nF, nP, avgDeg = 30, cap = 300, seed + 37)
        .withColumn("joinDate", GenUtil.longCol(1_000_000_000L, 1_400_000_000L, seed + 38)),
      "hasTag" -> GenUtil.nnEdges(spark, nPost, nT, avgDeg = 3, cap = 10, seed + 39),
      "hasType" -> GenUtil.singleEdges(spark, nT, nTc, presence = 1.0, seed + 40),
      "isSubclassOf" -> GenUtil.singleEdges(spark, nTc, nTc, presence = 0.8, seed + 41)
    )

    GraphData(schema,
      Map("person" -> person, "comment" -> comment, "post" -> post, "forum" -> forum,
        "org" -> org, "place" -> place, "tag" -> tag, "tagclass" -> tagclass),
      edges)
  }
}
