package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{SparkSpec, TestFixtures}
import repro.datasets.ImdbLite
import repro.query._

/** The one string-test semantics (`StrTest.matches`) on IMDb-lite, across
  * all five systems: GF-RV tests decoded strings per tuple, GF-CV and GF-CL
  * test dictionary codes, Spark SQL and DuckDB run `SqlGen`'s translation.
  * Constants come from the generator's own word lists.
  */
class StringPredSpec extends SparkSpec {

  private def fx = TestFixtures.imdb

  /** `word`, checked to be in the generator's domain `words`. */
  private def pick(words: Seq[String], word: String): String = {
    require(words.contains(word), s"$word is not generated")
    word
  }

  /** Every vertex of `label` whose `prop` passes the test (a scan). */
  private def vertexQuery(label: String, prop: String)(t: StrTest): Query =
    Query(s"$label.$prop $t", vars = Seq(QVar("a", label)), edges = Seq.empty,
      preds = Seq(StrPred(VProp("a", prop), t)), anchor = "a", joinOrder = Seq.empty)

  /** Every `label` edge whose `prop` passes the test, read by the list
    * extension from the source vertex.
    */
  private def edgeQuery(label: String, prop: String)(t: StrTest): Query = {
    val e = ImdbLite.schema.edge(label)
    Query(s"$label.$prop $t", vars = Seq(QVar("s", e.src), QVar("d", e.dst)),
      edges = Seq(QEdge(label, "s", "d", alias = "e")),
      preds = Seq(StrPred(EProp("e", prop), t)), anchor = "s", joinOrder = Seq(0))
  }

  private def nonNull(df: DataFrame, prop: String): Long = df.where(col(prop).isNotNull).count()

  private val kinds = Seq(
    "SEq on title.kind" -> vertexQuery("title", "kind")(SEq(pick(ImdbLite.kinds, "tv series"))),
    "SNe on NULL-bearing movie_companies.note" ->
      edgeQuery("movie_companies", "note")(SNe(pick(ImdbLite.mcNotes, "(presents)"))),
    "SIn on title.kind" ->
      vertexQuery("title", "kind")(SIn(Set("movie", "episode", "short").map(pick(ImdbLite.kinds, _)))),
    "SContains on NULL-bearing movie_companies.note" ->
      edgeQuery("movie_companies", "note")(SContains("theatrical")),
    "SStartsWith on movie_info.info" -> vertexQuery("movie_info", "info")(SStartsWith("USA")))

  for ((name, q) <- kinds) {
    test(s"$name agrees across all systems") {
      assert(TestFixtures.checkAllSystems(fx, q) > 0, s"${q.name} should match at test scale")
    }
  }

  /** A string property, the query family over it, and its word for SCmp. */
  private final class Target(val name: String, val query: StrTest => Query,
                             val rows: () => DataFrame, val prop: String, val word: String)

  private val targets = Seq(
    new Target("vertex property keyword.keyword", vertexQuery("keyword", "keyword"),
      () => fx.data.vertices("keyword"), "keyword", pick(ImdbLite.keywords, "kw075")),
    new Target("edge property cast_info.pname", edgeQuery("cast_info", "pname"),
      () => fx.data.edges("cast_info"), "pname", pick(ImdbLite.personNames, "person150 surname150")),
    new Target("NULL-bearing movie_info.note", vertexQuery("movie_info", "note"),
      () => fx.data.vertices("movie_info"), "note", pick(ImdbLite.miNotes, "(theatrical)")))

  for (tg <- targets) {
    test(s"SCmp with all six ops on ${tg.name} agrees across all systems") {
      val counts = Seq(LT, LE, GT, GE, EQ, NE).map { op =>
        op -> TestFixtures.checkAllSystems(fx, tg.query(SCmp(op, tg.word)))
      }.toMap
      val n = nonNull(tg.rows(), tg.prop)
      // Each op and its complement split the non-NULL rows; NULL passes neither.
      assert(counts(LT) + counts(GE) == n, counts)
      assert(counts(LE) + counts(GT) == n, counts)
      assert(counts(EQ) + counts(NE) == n, counts)
      assert(counts(LT) > 0 && counts(GT) > 0, counts)
    }
  }

  test("SEq and SNe with a constant outside the dictionary") {
    val absent = "no such note"
    assert(!ImdbLite.miNotes.contains(absent))
    val q = vertexQuery("movie_info", "note") _
    assert(TestFixtures.checkAllSystems(fx, q(SEq(absent))) == 0)
    val n = nonNull(fx.data.vertices("movie_info"), "note")
    assert(n > 0)
    assert(TestFixtures.checkAllSystems(fx, q(SNe(absent))) == n)
  }
}
