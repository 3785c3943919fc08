package repro.baseline

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.SparkSession
import repro.core.GraphData
import repro.query.{Query, SqlGen}

/** Columnar-RDBMS baselines for Table 6 (paper §8.7 substitution):
  *
  *  - Spark SQL (Catalyst + vectorized exec, broadcast joins disabled so
  *    shuffle joins run) stands in for MonetDB;
  *  - DuckDB (in-process, vectorized, own optimizer — often bushy plans,
  *    like the paper observes for MonetDB/Vertica on JOB) stands in for
  *    Vertica.
  *
  * Both see the same `v_<label>` / `e_<label>` tables generated from the
  * dataset's DataFrames; like the paper's doubly-sorted edge-table copies,
  * the RDBMSs have the full tables but no adjacency-list index.
  */
object SqlBaseline {

  /** Register the dataset's tables as Spark temp views (cached). */
  def registerSpark(spark: SparkSession, data: GraphData): Unit = {
    data.vertices.foreach { case (label, df) =>
      df.cache().createOrReplaceTempView(SqlGen.vertexTable(label))
    }
    data.edges.foreach { case (label, df) =>
      df.cache().createOrReplaceTempView(SqlGen.edgeTable(label))
    }
    // Materialize the caches so query timings exclude generation.
    data.vertices.keys.foreach(l => spark.table(SqlGen.vertexTable(l)).count())
    data.edges.keys.foreach(l => spark.table(SqlGen.edgeTable(l)).count())
  }

  def sparkCount(spark: SparkSession, q: Query): Long =
    spark.sql(SqlGen.countSql(q)).collect()(0).getLong(0)

  /** Load the dataset into an in-memory DuckDB instance via Parquet files
    * (orders of magnitude faster than row-wise JDBC inserts).
    */
  def loadDuckDb(spark: SparkSession, data: GraphData, scratchDir: String): Connection = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    val stmt = conn.createStatement()
    def loadTable(table: String, df: org.apache.spark.sql.DataFrame): Unit = {
      val path = s"$scratchDir/$table"
      df.coalesce(1).write.mode("overwrite").parquet(path)
      stmt.execute(s"CREATE TABLE $table AS SELECT * FROM read_parquet('$path/*.parquet')")
    }
    data.vertices.foreach { case (label, df) => loadTable(SqlGen.vertexTable(label), df) }
    data.edges.foreach { case (label, df) => loadTable(SqlGen.edgeTable(label), df) }
    stmt.close()
    conn
  }

  /** The number of threads DuckDB runs a query on. */
  def duckThreads(conn: Connection): String = {
    val stmt = conn.createStatement()
    try {
      val rs = stmt.executeQuery("SELECT current_setting('threads')")
      rs.next()
      rs.getString(1)
    } finally stmt.close()
  }

  def duckCount(conn: Connection, q: Query): Long = {
    val stmt = conn.createStatement()
    try {
      val rs = stmt.executeQuery(SqlGen.countSql(q))
      rs.next()
      rs.getLong(1)
    } finally stmt.close()
  }
}
