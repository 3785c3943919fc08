package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.datasets.{ImdbLite, LdbcLite, LdbcQueries, SocialGraph}
import repro.exp.MicroQueries
import repro.query.{CmpConst, EQ, Query, VProp}

import scala.collection.mutable.ArrayBuffer

/** A closed-loop workload: one client sends the next operation only when
  * the last one has returned. Operations come in groups (one template on
  * every system it runs on) so that each group's results can be checked
  * against each other.
  */
abstract class Workload(val spark: SparkSession, val seed: Long, val tracer: Tracer) {
  val calls = new Calls(tracer)

  /** Generate, collect and build what the first operation needs.
    * Returns the nanoseconds spent in `GraphLoader.build`.
    */
  def setup(): Long

  /** Collected datasets of the last set-up, in a fixed order. */
  def datasets: Seq[CollectedGraph]

  /** The GF-CL store(s) whose allocated size is `store_mb`. */
  def gfclStores: Seq[GraphStore]

  /** Set-ups per untraced run; `setup_s` is their median. */
  def setupRuns: Int = 3

  /** Groups run before timing starts. */
  def warmupGroups: Int

  /** Untimed calls made before the warm-up groups, from this thread alone. */
  def warmup(): Unit = ()

  /** Extra build timings for [[buildSeconds]], taken just before and just
    * after the timed loop of an untraced run so that together they span it.
    */
  def sampleBuilds(): Unit = ()

  /** Run operation group `i` (the op sequence depends only on `i` and the
    * seed), appending one [[Op]] per operation.
    */
  def group(i: Int, out: ArrayBuffer[Op]): Unit

  /** Median seconds to build every store the workload needs once. */
  def buildSeconds(setupBuildNs: Seq[Long]): Double = Stats.median(setupBuildNs.map(_ / 1e9))

  /** Sum of result counts fixed by the seed alone (must repeat exactly). */
  def resultCount: Long

  /** Query operations run outside the loop, for workloads whose loop runs
    * none: the traced run takes its query-layer figures from them.
    */
  def probeQueries(): Seq[Op] = Nil

  /** The 1-hop query the Spark overhead probe runs. */
  def parQuery: Query

  /** Dataset sizes, as recorded with each result. */
  def scale: String

  protected def collect(data: => GraphData): CollectedGraph = {
    val d = tracer.span("datasets.generate")(data)
    tracer.span("core.collect")(GraphLoader.collect(d))
  }

  protected def build(g: CollectedGraph, c: StorageConfig): GraphStore =
    tracer.span("core.build")(GraphLoader.build(g, c))
}

object Workload {
  val names: Seq[String] = Seq("khop-wiki", "load-ladder")

  def apply(name: String, spark: SparkSession, seed: Long, tracer: Tracer): Workload = name match {
    case "khop-wiki"        => new KhopWiki(spark, seed, tracer)
    case "load-ladder"      => new LoadLadder(spark, seed, tracer)
    case other => throw new IllegalArgumentException(s"unknown workload $other; one of ${names.mkString(", ")}")
  }

  /** Parallelism of the benchmark's Spark session and of ParallelRunner. */
  val partitions = 4
}

/** Table 5's k-hop path counts over WIKI-lite on the GF-CL store: GF-CL
  * (LBP) and GF-CV (Volcano, the baseline), checked against Spark-parallel
  * LBP in the warm-up.
  */
final class KhopWiki(spark: SparkSession, seed: Long, tracer: Tracer) extends Workload(spark, seed, tracer) {
  val nodes = 10000L
  private var g: CollectedGraph = _
  private var store: GraphStore = _

  // 3-hop FILTER takes seconds per run even on GF-CL, and 3-hop COUNT on
  // Volcano 4-5 s: neither leaves room for a median within one run.
  val templates: IndexedSeq[Query] = for {
    hops <- (1 to 3).toIndexedSeq
    filter <- Seq(None, Some(1_200_000_000L)) if !(hops == 3 && filter.isDefined)
    forward <- Seq(true, false)
  } yield MicroQueries.khop("link", "node", hops, forward, filter)
  private def onVolcano(q: Query): Boolean = q.edges.length < 3

  private val reference = scala.collection.mutable.HashMap.empty[String, Long]

  def setup(): Long = {
    store = null; g = null
    g = collect(SocialGraph.wikiLite(spark, nodes, seed))
    val t0 = System.nanoTime()
    store = build(g, StorageConfig.GFCL)
    System.nanoTime() - t0
  }
  def datasets: Seq[CollectedGraph] = Seq(g)
  def gfclStores: Seq[GraphStore] = Seq(store)
  def warmupGroups: Int = templates.length
  def parQuery: Query = templates.head

  /** LBP alone over every template, before Spark tasks run the same code:
    * the JIT then compiles it from one thread's profile, not from a race
    * with the ParallelRunner tasks.
    */
  override def warmup(): Unit = for (_ <- 0 until 2; q <- templates) calls.lbp(store, q)

  def scale: String = s"wiki-lite nodes=$nodes"

  def group(i: Int, out: ArrayBuffer[Op]): Unit = {
    val q = templates(i % templates.length)
    tracer.op = i
    val (nsCl, cl) = calls.timed("op.gfcl")(calls.lbp(store, q))
    val cv = if (onVolcano(q)) Some(calls.timed("op.base")(calls.volcano(store, q))) else None
    // ParallelRunner runs in the warm-up groups only: its Spark tasks would
    // share the cores with the timed calls. Later GF-CL counts are checked
    // against the reference it agreed with.
    val par =
      if (i < warmupGroups) Some(calls.timed("op.par")(calls.par(spark, store, q, Workload.partitions))) else None
    val ref = cl.map(c => reference.getOrElseUpdate(q.name, c))
    val cvOk = cv.forall(_._2 == cl)
    val parOk = par.forall(_._2 == cl)
    out += Op(q.name, "gfcl", nsCl, cl.isDefined && cl == ref && cvOk && parOk, cl.getOrElse(-1L))
    cv.foreach { case (ns, c) => out += Op(q.name, "base", ns, cl.isDefined && c == cl, c.getOrElse(-1L)) }
    par.foreach { case (ns, c) => out += Op(q.name, "par", ns, cl.isDefined && c == cl, c.getOrElse(-1L)) }
  }

  def resultCount: Long = templates.map(q => reference.getOrElse(q.name, 0L)).sum

  /** A GF-CL build of WIKI-lite takes about 0.1 s, too short for a median
    * of the set-ups alone. Each timed build starts from a collected heap, so
    * that no build pays for the garbage of another.
    */
  private val buildTimes = ArrayBuffer.empty[Double]
  override def sampleBuilds(): Unit = (0 until 16).foreach { _ =>
    System.gc()
    val t0 = System.nanoTime()
    GraphLoader.build(g, StorageConfig.GFCL)
    buildTimes += (System.nanoTime() - t0) / 1e9
  }

  override def buildSeconds(setupBuildNs: Seq[Long]): Double = {
    val ms = buildTimes.map(_ * 1e3).toSeq
    System.err.println(f"perfbench: build GFCL n=${ms.length}%d median=${Stats.median(ms)}%.3f ms min=${ms.min}%.3f max=${ms.max}%.3f")
    Stats.median(buildTimes.toSeq)
  }
}

/** Parameterized LDBC IS/IC queries: each group is one template with an
  * anchor drawn from the seed, compiled and run on GF-CL (LBP) and on
  * GF-RV (Volcano over the row store), whose counts must agree.
  */
final class LdbcClient(calls: Calls, tracer: Tracer, nPersons: Long, seed: Long) {
  val templates: IndexedSeq[Query] = LdbcQueries.all(nPersons).toIndexedSeq
  private val anchors = new java.util.Random(seed)
  private var drawn = 0

  /** The template with its anchor's id constant replaced. */
  private def withAnchor(q: Query, id: Long): Query = q.copy(preds = q.preds.map {
    case CmpConst(VProp(v, "id"), EQ, _) if v == q.anchor => CmpConst(VProp(v, "id"), EQ, id)
    case p => p
  })

  private def anchorId(q: Query): Long = q.varByName(q.anchor).label match {
    case "person"  => LdbcLite.personId(anchors.nextInt(nPersons.toInt).toLong)
    case "comment" => LdbcLite.commentId(anchors.nextInt(nPersons.toInt * 8).toLong)
    case other     => throw new IllegalStateException(s"${q.name}: no anchor ids for $other")
  }

  def group(i: Int, cl: GraphStore, rv: GraphStore, out: ArrayBuffer[Op]): Unit = {
    require(i == drawn, s"groups run in order: expected $drawn, got $i")
    drawn += 1
    val t = templates(i % templates.length)
    val q = withAnchor(t, anchorId(t))
    tracer.op = i
    val (nsCl, cCl) = calls.timed("op.gfcl")(calls.lbp(cl, q))
    val (nsRv, cRv) = calls.timed("op.base")(calls.volcano(rv, q))
    val ok = cCl.isDefined && cCl == cRv
    out += Op(t.name, "gfcl", nsCl, ok, cCl.getOrElse(-1L))
    out += Op(t.name, "base", nsRv, ok, cRv.getOrElse(-1L))
  }
}

/** The write path: every ladder config built over a collected LDBC-lite
  * and a collected IMDb-lite; one group is one build of all ten. Each
  * built store is checked against the collected graph.
  */
final class LoadLadder(spark: SparkSession, seed: Long, tracer: Tracer) extends Workload(spark, seed, tracer) {
  val persons = 15000L
  val titles = 25000L
  private var gs: Seq[(String, CollectedGraph, StoreCheck)] = Nil
  private val lastGfcl = scala.collection.mutable.LinkedHashMap.empty[String, GraphStore]
  private var lastGfrv: GraphStore = _
  private val roundNs = ArrayBuffer.empty[Long]
  private var firstRoundChecks = 0L

  def setup(): Long = {
    gs = Nil; lastGfcl.clear(); lastGfrv = null
    val ldbc = collect(LdbcLite(spark, persons, seed))
    val imdb = collect(ImdbLite(spark, titles, seed))
    gs = Seq(("ldbc", ldbc, new StoreCheck(ldbc, seed)), ("imdb", imdb, new StoreCheck(imdb, seed)))
    0L
  }
  def datasets: Seq[CollectedGraph] = gs.map(_._2)
  def gfclStores: Seq[GraphStore] = lastGfcl.values.toSeq
  def warmupGroups: Int = 1
  def parQuery: Query = MicroQueries.khop("knows", "person", 1, forward = true, None)
  def scale: String = s"ldbc-lite persons=$persons, imdb-lite titles=$titles"

  private def role(c: StorageConfig): String =
    if (c == StorageConfig.GFCL) "gfcl" else if (c == StorageConfig.GFRV) "base" else "ladder"

  def group(i: Int, out: ArrayBuffer[Op]): Unit = {
    tracer.op = i
    var total = 0L
    for ((name, g, check) <- gs; c <- StorageConfig.ladder) {
      val (ns, s) = {
        var store: GraphStore = null
        val (ns, r) = calls.timed(s"build.${role(c)}") { store = GraphLoader.build(g, c); 0L }
        (ns, if (r.isDefined) Some(store) else None)
      }
      total += ns
      val checked =
        try s.map(check(_))
        catch { case e: IllegalStateException => System.err.println(s"check failed: ${e.getMessage}"); None }
      if (i == 0) firstRoundChecks += checked.getOrElse(0L)
      out += Op(s"$name/${c.name}", role(c), ns, checked.isDefined, checked.getOrElse(-1L))
      if (c == StorageConfig.GFCL) s.foreach(lastGfcl(name) = _)
      if (c == StorageConfig.GFRV && name == "ldbc") lastGfrv = s.orNull
    }
    roundNs += total
  }

  /** Median over measured groups of the time to build all ten stores. */
  override def buildSeconds(setupBuildNs: Seq[Long]): Double =
    Stats.median(roundNs.drop(warmupGroups).map(_ / 1e9).toSeq)

  def resultCount: Long = firstRoundChecks

  /** The ladder runs no queries of its own; this probe runs the LDBC
    * templates on the last GF-CL and GF-RV builds of LDBC-lite.
    */
  override def probeQueries(): Seq[Op] = {
    val client = new LdbcClient(calls, tracer, persons, seed)
    val out = ArrayBuffer.empty[Op]
    (0 until 10 * client.templates.length).foreach(i => client.group(i, lastGfcl("ldbc"), lastGfrv, out))
    out.toSeq
  }
}
