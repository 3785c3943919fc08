package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baseline.SqlBaseline
import repro.core._
import repro.datasets._
import repro.engine.{Lbp, Volcano}
import repro.query.{Compiler, Query}

/** Table 6: end-to-end benchmarks on LDBC (IS01–IS07, IC01–IC12) and JOB
  * (1a–33a) across:
  *   GF-CL  — columnar storage + list-based processor,
  *   GF-RV  — row storage + Volcano (also the paper's Neo4j-like baseline),
  *   SPARK  — Spark SQL over vertex/edge tables (MonetDB stand-in),
  *   DUCK   — DuckDB over the same tables (Vertica stand-in).
  * Every query runs as count(*); counts are cross-checked across systems
  * so a benchmark row is also a correctness assertion.
  */
object Table6Benchmarks {

  final case class Row(query: String, count: Long, gfclMs: Sample, gfrvMs: Sample,
                       sparkMs: Sample, duckMs: Sample) {
    def rvOverCl: Double = gfrvMs.median / gfclMs.median
  }
  final case class Result(benchmark: String, rows: Seq[Row]) {
    def medianSpeedup: Double = {
      val s = rows.map(_.rvOverCl).sorted
      s(s.size / 2)
    }
  }

  def run(spark: SparkSession, benchmark: String, data: GraphData, queries: Seq[Query]): Result = {
    val collected = GraphLoader.collect(data)
    val gfrv = GraphLoader.build(collected, StorageConfig.GFRV)
    val gfcl = GraphLoader.build(collected, StorageConfig.GFCL)
    SqlBaseline.registerSpark(spark, data)
    val duckDir = java.nio.file.Files
      .createTempDirectory("duck-" + benchmark.replaceAll("[^A-Za-z0-9]", "-")).toString
    val duck = SqlBaseline.loadDuckDb(spark, data, duckDir)

    // GF-CL and GF-RV plans are compiled once, so their timings measure
    // execution (the paper's systems also plan once per run). Each SQL
    // call plans its query again, so the SPARK column includes planning;
    // re-running one DataFrame would reuse its shuffle outputs instead.
    val plans = queries.map(q => (q, Compiler.compile(q, gfcl), Compiler.compile(q, gfrv)))
    // Pass 1: cross-check every query's count on all four systems. This
    // also warms every engine over the whole workload before the first
    // cell is timed, not just over the query about to be timed.
    val counts = plans.map { case (q, clPlan, rvPlan) =>
      val cCl = Lbp.count(gfcl, clPlan)
      val cRv = Volcano.count(gfrv, rvPlan)
      val cSp = SqlBaseline.sparkCount(spark, q)
      val cDk = SqlBaseline.duckCount(duck, q)
      require(cCl == cRv && cCl == cSp && cCl == cDk,
        s"${q.name}: counts differ GF-CL=$cCl GF-RV=$cRv SPARK=$cSp DUCK=$cDk")
      cCl
    }
    // Pass 2: time every cell.
    val rows = plans.zip(counts).map { case ((q, clPlan, rvPlan), count) =>
      Row(q.name, count,
        gfclMs = Timing.measure(Lbp.count(gfcl, clPlan)),
        gfrvMs = Timing.measure(Volcano.count(gfrv, rvPlan)),
        sparkMs = Timing.measure(SqlBaseline.sparkCount(spark, q)),
        duckMs = Timing.measure(SqlBaseline.duckCount(duck, q)))
    }
    duck.close()
    Result(benchmark, rows)
  }

  def render(r: Result): String = {
    val t = new TablePrinter(s"Table 6 — ${r.benchmark} runtime (ms) per system")
    t.row("query", "count", "GF-CL", "GF-RV", "SPARK (incl. planning)", "DUCK", "GF-RV/GF-CL")
    r.rows.foreach { row =>
      t.row(row.query, row.count, Timing.fmt(row.gfclMs), Timing.fmt(row.gfrvMs),
        Timing.fmt(row.sparkMs), Timing.fmt(row.duckMs), f"${row.rvOverCl}%.1fx")
    }
    t.row("median", "", "", "", "", "", f"${r.medianSpeedup}%.1fx")
    t.printOut()
  }

  def runLdbc(spark: SparkSession): Result = {
    val n = Scale.t6LdbcPersons
    run(spark, "LDBC IS/IC", LdbcLite(spark, n), LdbcQueries.all(n))
  }

  def runJob(spark: SparkSession): Result =
    run(spark, "JOB", ImdbLite(spark, Scale.imdbTitles), JobQueries.all)
}
