package repro

import java.nio.file.{Files, Path}
import java.util.Comparator
import org.apache.spark.sql.SparkSession
import scala.util.Using
import repro.baseline.SqlBaseline
import repro.core._
import repro.datasets._
import repro.engine.{Lbp, Volcano}
import repro.query.Query

/** Shared tiny datasets + stores for the test run (one JVM, lazily built
  * once) and the cross-system count checker used by every query-level test.
  */
object TestFixtures {

  val NPersons = 200L
  val NTitles = 400L
  val NSocial = 500L

  private def spark: SparkSession = SparkSpec.shared

  lazy val ldbcData: GraphData = LdbcLite(spark, NPersons)
  lazy val ldbcCollected: CollectedGraph = GraphLoader.collect(ldbcData)
  lazy val imdbData: GraphData = ImdbLite(spark, NTitles)
  lazy val imdbCollected: CollectedGraph = GraphLoader.collect(imdbData)
  lazy val socialData: GraphData = SocialGraph.flickrLite(spark, NSocial)
  lazy val socialCollected: CollectedGraph = GraphLoader.collect(socialData)

  def store(g: CollectedGraph, config: StorageConfig): GraphStore = GraphLoader.build(g, config)

  final case class Fixture(data: GraphData, collected: CollectedGraph) {
    lazy val gfrv: GraphStore = store(collected, StorageConfig.GFRV)
    lazy val gfcl: GraphStore = store(collected, StorageConfig.GFCL)
    /** `loadDuckDb` copies the Parquet files into the in-memory database,
      * so their directory goes once it returns.
      */
    lazy val duck: java.sql.Connection = {
      val dir = Files.createTempDirectory("duck")
      try SqlBaseline.loadDuckDb(spark, data, dir.toString)
      finally Using.resource(Files.walk(dir))(_.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p)))
    }
    private var sparkRegistered = false
    def ensureSpark(): Unit = synchronized {
      if (!sparkRegistered) { SqlBaseline.registerSpark(spark, data); sparkRegistered = true }
    }
  }

  lazy val ldbc: Fixture = Fixture(ldbcData, ldbcCollected)
  lazy val imdb: Fixture = Fixture(imdbData, imdbCollected)
  lazy val social: Fixture = Fixture(socialData, socialCollected)

  /** Assert GF-RV (row+Volcano), GF-CV (columnar+Volcano), GF-CL (LBP),
    * Spark SQL, and DuckDB all agree on count(*). Returns the count.
    */
  def checkAllSystems(fx: Fixture, q: Query): Long = {
    fx.ensureSpark()
    val rv = Volcano.count(fx.gfrv, q)
    val cv = Volcano.count(fx.gfcl, q)
    val cl = Lbp.count(fx.gfcl, q)
    val sql = SqlBaseline.sparkCount(spark, q)
    val duck = SqlBaseline.duckCount(fx.duck, q)
    assert(rv == cv, s"${q.name}: GF-RV=$rv vs GF-CV=$cv")
    assert(rv == cl, s"${q.name}: GF-RV=$rv vs GF-CL=$cl")
    assert(rv == sql, s"${q.name}: GF-RV=$rv vs SparkSQL=$sql")
    assert(rv == duck, s"${q.name}: GF-RV=$rv vs DuckDB=$duck")
    rv
  }
}
