package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{CollectedGraph, GraphStore, PLongT, PStringT, Values}
import repro.engine.{Lbp, Volcano}
import repro.query.{Compiler, Query}
import repro.spark.ParallelRunner
import repro.storage.{CsrAdjacency, SingleAdjacency}

/** One benchmark operation as the client saw it. `role` is "gfcl" for the
  * columnar store with the list-based processor, "base" for the
  * workload's baseline system, "par" for Spark-parallel LBP and "ladder"
  * for intermediate ladder builds.
  */
final case class Op(template: String, role: String, ns: Long, ok: Boolean, count: Long)

/** The calls one operation makes into the program, each inside a span. */
final class Calls(tracer: Tracer) {

  /** Run `body` as one operation: wall time, and its result or None if it
    * threw (the exception goes to stderr, the op counts as failed).
    */
  def timed(span: String)(body: => Long): (Long, Option[Long]) = {
    val t0 = System.nanoTime()
    val r =
      try Some(tracer.span(span)(body))
      catch { case e: Exception => System.err.println(s"$span failed: $e"); None }
    (System.nanoTime() - t0, r)
  }

  def compile(q: Query, store: GraphStore) = tracer.span("query.compile")(Compiler.compile(q, store))

  def lbp(store: GraphStore, q: Query): Long = {
    val plan = compile(q, store)
    tracer.span("engine.lbp.count")(Lbp.count(store, plan))
  }

  def volcano(store: GraphStore, q: Query): Long = {
    val plan = compile(q, store)
    tracer.span("engine.volcano.count")(Volcano.count(store, plan))
  }

  def par(spark: SparkSession, store: GraphStore, q: Query, partitions: Int): Long =
    tracer.span("spark.par.count")(ParallelRunner.count(spark, store, q, partitions))
}

/** Checks that a built store holds the collected graph: entity counts,
  * sampled vertex property values, and every adjacency list's length in
  * both directions.
  */
final class StoreCheck(g: CollectedGraph, seed: Long) {
  private val schema = g.schema
  private def degrees(ends: Array[Int], n: Int): Array[Int] = {
    val d = new Array[Int](n)
    ends.foreach(v => d(v) += 1)
    d
  }
  private val fwdDeg = schema.edges.indices.map(e => degrees(g.edgeSrc(e), g.vertexCounts(schema.srcLabelOf(e))))
  private val bwdDeg = schema.edges.indices.map(e => degrees(g.edgeDst(e), g.vertexCounts(schema.dstLabelOf(e))))
  private val samples: IndexedSeq[Array[Int]] = {
    val rnd = new java.util.Random(seed)
    g.vertexCounts.toIndexedSeq.map(n => Array.fill(math.min(n, 64))(rnd.nextInt(n)))
  }

  /** Number of values compared; throws on the first mismatch. */
  def apply(s: GraphStore): Long = {
    var checked = 0L
    def expect(ok: Boolean, what: => String): Unit = {
      if (!ok) throw new IllegalStateException(s"${s.config.name}: $what")
      checked += 1
    }
    expect(s.vertexCounts.sameElements(g.vertexCounts), "vertex counts differ")
    for (li <- schema.vertices.indices; v <- samples(li); (p, pi) <- schema.vertices(li).props.zipWithIndex) {
      p.ptype match {
        case PLongT =>
          val want = g.vertexProps(li)(pi).asInstanceOf[Array[Long]](v)
          expect(s.vertexLong(li, v, pi) == want, s"${schema.vertices(li).name}[$v].${p.name}")
        case PStringT =>
          val want = g.vertexProps(li)(pi).asInstanceOf[Array[String]](v)
          expect(s.vertexString(li, v, pi) == want, s"${schema.vertices(li).name}[$v].${p.name}")
      }
    }
    for (e <- schema.edges.indices; (fwd, deg) <- Seq(true -> fwdDeg(e), false -> bwdDeg(e))) {
      val len: Int => Int = s.adjacency(e, fwd) match {
        case c: CsrAdjacency => v => { val st = c.start(v); if (st < 0) 0 else c.end(v) - st }
        case a: SingleAdjacency => v => if (a.nbr(v) == Values.Null) 0 else 1
      }
      var v = 0
      while (v < deg.length) {
        if (len(v) != deg(v)) expect(ok = false, s"${schema.edges(e).name} fwd=$fwd list $v: ${len(v)} != ${deg(v)}")
        v += 1
      }
      checked += deg.length
    }
    checked
  }
}
