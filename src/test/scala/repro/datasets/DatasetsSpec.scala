package repro.datasets

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.engine.Lbp
import repro.query._

/** Structural invariants of the synthetic datasets — the properties the
  * paper's experiments rely on (cardinalities, sparsity, degree shape).
  */
class DatasetsSpec extends SparkSpec {

  test("every dataset's tables match its schema's labels and properties") {
    for (data <- Seq(TestFixtures.ldbcData, TestFixtures.imdbData, TestFixtures.socialData)) {
      assert(data.vertices.keySet == data.schema.vertices.map(_.name).toSet)
      assert(data.edges.keySet == data.schema.edges.map(_.name).toSet)
      data.schema.vertices.foreach { v =>
        val cols = data.vertices(v.name).columns.toSet
        assert(cols == (v.props.map(_.name).toSet + "vid"), s"${v.name}: $cols")
      }
      data.schema.edges.foreach { e =>
        val cols = data.edges(e.name).columns.toSet
        assert(cols == (e.props.map(_.name).toSet ++ Set("src", "dst")), s"${e.name}: $cols")
      }
    }
  }

  test("edge endpoints stay in range") {
    for (data <- Seq(TestFixtures.ldbcData, TestFixtures.imdbData)) {
      data.schema.edges.foreach { e =>
        val nSrc = data.vertices(e.src).count()
        val nDst = data.vertices(e.dst).count()
        val bad = data.edges(e.name)
          .where(col("src") < 0 || col("src") >= nSrc || col("dst") < 0 || col("dst") >= nDst)
          .count()
        assert(bad == 0, s"${e.name}: $bad out-of-range endpoints")
      }
    }
  }

  test("declared single-cardinality labels actually are single") {
    for (data <- Seq(TestFixtures.ldbcData, TestFixtures.imdbData)) {
      data.schema.edges.foreach { e =>
        if (e.card.singleFwd) {
          val dup = data.edges(e.name).groupBy("src").count().where(col("count") > 1).count()
          assert(dup == 0, s"${e.name}: $dup sources with multiple forward edges")
        }
        if (e.card.singleBwd) {
          val dup = data.edges(e.name).groupBy("dst").count().where(col("count") > 1).count()
          assert(dup == 0, s"${e.name}: $dup destinations with multiple backward edges")
        }
      }
    }
  }

  test("LDBC-lite replyOf forward lists are ~50% empty (Table 4 shape)") {
    val nC = TestFixtures.ldbcData.vertices("comment").count()
    val withReply = TestFixtures.ldbcData.edges("replyOfComment").select("src").distinct().count()
    val frac = withReply.toDouble / nC
    assert(frac > 0.3 && frac < 0.7, s"replyOf presence fraction $frac")
  }

  test("LDBC-lite mirrors LDBC's label mix: >half of edge labels single-cardinality") {
    val single = LdbcLite.schema.edges.count(_.singleCardinality)
    assert(single >= LdbcLite.schema.edges.size / 2, s"$single single-cardinality labels")
    assert(LdbcLite.schema.edges.size >= 15)
  }

  test("IMDb-lite edge properties are NULL-heavy like IMDb's") {
    val ci = TestFixtures.imdbData.edges("cast_info")
    val n = ci.count()
    val noteNulls = ci.where(col("note").isNull).count()
    assert(noteNulls.toDouble / n > 0.4, s"cast_info.note null fraction ${noteNulls.toDouble / n}")
  }

  test("social graphs hit the paper's average degrees (FLICKR 14, WIKI 41)") {
    val f = SocialGraph.flickrLite(spark, 2000).edges("link").count() / 2000.0
    assert(f > 9 && f < 20, s"flickr avg degree $f")
    val w = SocialGraph.wikiLite(spark, 2000).edges("link").count() / 2000.0
    assert(w > 28 && w < 58, s"wiki avg degree $w")
  }

  test("power-law degrees: max degree far exceeds the average but respects the cap") {
    val deg = TestFixtures.socialData.edges("link").groupBy("src").count()
    val maxDeg = deg.agg(max("count")).collect()(0).getLong(0)
    val avgDeg = deg.agg(avg("count")).collect()(0).getDouble(0)
    assert(maxDeg > 3 * avgDeg, s"max=$maxDeg avg=$avgDeg: no skew")
    assert(maxDeg <= 400, s"max=$maxDeg exceeds cap")
  }

  test("generation is deterministic in the seed") {
    val a = SocialGraph.flickrLite(spark, 500).edges("link").agg(sum("src"), sum("dst"), sum("since")).collect()(0)
    val b = SocialGraph.flickrLite(spark, 500).edges("link").agg(sum("src"), sum("dst"), sum("since")).collect()(0)
    assert(a == b)
  }

  test("generated data do not depend on the core count") {
    // Per table: the row count and one hash sum per column.
    def fingerprint(): Map[String, Seq[Any]] =
      Seq("imdb" -> ImdbLite(spark, TestFixtures.NTitles), "ldbc" -> LdbcLite(spark, TestFixtures.NPersons))
        .flatMap { case (set, data) =>
          (data.vertices ++ data.edges).map { case (table, df) =>
            val sums = df.columns.toSeq.map(c => sum(hash(col(c)).cast("long")))
            s"$set.$table" -> df.agg(count(lit(1)), sums: _*).collect()(0).toSeq
          }
        }.toMap
    val key = "spark.sql.leafNodeDefaultParallelism"
    try {
      spark.conf.set(key, 1)
      val one = fingerprint()
      spark.conf.set(key, 4)
      val four = fingerprint()
      val differ = one.keys.filter(t => one(t) != four(t))
      assert(differ.isEmpty, s"tables that differ between 1 and 4 leaf partitions: $differ")
    } finally spark.conf.unset(key)
  }

  test("IMDb-lite answers every JOB query (one planted witness each)") {
    val empty = JobQueries.all.filter(q => Lbp.count(TestFixtures.imdb.gfcl, q) == 0).map(_.name)
    assert(empty.isEmpty, s"JOB queries with no answer: $empty")
  }

  test("a JOB predicate that no domain value passes is refused, not left empty") {
    val q = Query("opera", Seq(QVar("t", "title")), Seq.empty,
      Seq(StrPred(VProp("t", "kind"), SEq("opera"))), anchor = "t", joinOrder = Seq.empty)
    val e = intercept[IllegalStateException](ImdbLite.witnesses(Seq(q), ImdbLite.sizes(TestFixtures.NTitles)))
    assert(e.getMessage.contains("opera") && e.getMessage.contains("title.kind"), e.getMessage)
  }

  test("anchored person id exists exactly once") {
    val id = LdbcLite.personId(TestFixtures.NPersons / 2)
    assert(TestFixtures.ldbcData.vertices("person").where(col("id") === id).count() == 1)
  }
}
