package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.CollectedGraph

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Benchmark entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`.
  *
  * The untraced run (`--trace 0`) sets up several times, then runs the
  * workload's closed loop for `--seconds` and prints the end-to-end
  * metrics. The traced run (`--trace 1`) sets up once, runs the loop half
  * untraced and half traced, runs the layer probes, writes its spans to
  * `--out`, and prints the per-layer metrics. The last stdout line is the
  * result: `{"correct", "attempted", "failed", "metrics"}`.
  */
object Main {
  private val t0 = System.nanoTime()
  private def phase(what: String): Unit =
    System.err.println(f"perfbench: ${(System.nanoTime() - t0) / 1e9}%7.2f s  $what")

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String): String = args.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = arg("workload")
    val seed = arg("seed").toLong
    val seconds = arg("seconds").toInt
    val traced = arg("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val outDir = java.nio.file.Paths.get(arg("out"))
    require(Workload.names.contains(workload), s"unknown workload $workload; one of ${Workload.names.mkString(", ")}")

    val spark = session(outDir)
    phase("spark session up")
    try {
      val tracer = new Tracer(enabled = traced)
      val wl = Workload(workload, spark, seed, tracer)
      val result = if (traced) tracedRun(wl, tracer, seconds, outDir) else untracedRun(wl, seconds)
      println(Json.obj(Seq("info" -> Json.obj(info(wl, seconds).map { case (k, v) => k -> Json.str(v) }))))
      println(result)
    } finally spark.stop()
  }

  /** Local Spark with pinned parallelism, so generated data depend on
    * (scale, seed) and not on the host's core count.
    */
  private def session(outDir: java.nio.file.Path): SparkSession = {
    val threads = math.min(Workload.partitions, Runtime.getRuntime.availableProcessors)
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.default.parallelism", Workload.partitions.toString)
      .config("spark.sql.leafNodeDefaultParallelism", Workload.partitions.toString)
      .config("spark.sql.shuffle.partitions", Workload.partitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", outDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def loop(wl: Workload, from: Int, groups: Int, seconds: Double): (Seq[Op], Int) = {
    val out = ArrayBuffer.empty[Op]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var i = from
    while (if (groups > 0) i < from + groups else System.nanoTime() < deadline) {
      wl.group(i, out)
      i += 1
    }
    (out.toSeq, i)
  }

  private def timeSetups(wl: Workload, runs: Int): (Seq[Double], Seq[Long]) = {
    val res = (0 until runs).map { _ =>
      System.gc()
      val t0 = System.nanoTime()
      val buildNs = wl.setup()
      phase("set-up done")
      ((System.nanoTime() - t0) / 1e9, buildNs)
    }
    (res.map(_._1), res.map(_._2))
  }

  private def result(ops: Seq[Op], extraFailures: Seq[String], metrics: Seq[(String, Metric)]): String = {
    val failed = ops.count(!_.ok) + extraFailures.length
    extraFailures.foreach(f => System.err.println(s"check failed: $f"))
    Json.obj(Seq(
      "correct" -> (failed == 0).toString,
      "attempted" -> (ops.length + extraFailures.length).toString,
      "failed" -> failed.toString,
      "metrics" -> Json.metrics(metrics)))
  }

  private def untracedRun(wl: Workload, seconds: Int): String = {
    val (setupS, buildNs) = timeSetups(wl, wl.setupRuns)
    wl.warmup()
    val (warm, next) = loop(wl, 0, wl.warmupGroups, 0)
    phase("warm-up done")
    wl.sampleBuilds()
    val (ops, _) = loop(wl, next, 0, seconds)
    phase("loop done")
    wl.sampleBuilds()
    val storeMb = wl.gfclStores.map(HeapWalker.storeBytes).sum / 1e6
    ops.groupBy(o => (o.template, o.role)).toSeq.sortBy(_._1).foreach { case ((t, r), os) =>
      val ms = os.map(_.ns / 1e6)
      System.err.println(f"perfbench: $t%-16s $r%-6s n=${ms.length}%5d median=${Stats.median(ms)}%10.3f ms min=${ms.min}%10.3f max=${ms.max}%10.3f count=${os.head.count}%d")
    }
    result(warm ++ ops, Nil, Seq(
      "setup_s" -> Metric(Stats.median(setupS), "s"),
      "store_mb" -> Metric(storeMb, "MB"),
      "build_s" -> Metric(wl.buildSeconds(buildNs), "s"),
      "gfcl_geomean_ms" -> Metric(geomeanOfMedians(ops.filter(_.role == "gfcl")), "ms"),
      "base_geomean_ms" -> Metric(geomeanOfMedians(ops.filter(_.role == "base")), "ms")))
  }

  private def tracedRun(wl: Workload, tracer: Tracer, seconds: Int, outDir: java.nio.file.Path): String = {
    val gcBefore = gcMs()
    timeSetups(wl, 1)
    val collectMs = tracer.durations("core.collect").sum / 1e6
    tracer.enabled = false
    wl.warmup()
    val (warm, next) = loop(wl, 0, wl.warmupGroups, 0)
    val (plain, next2) = loop(wl, next, 0, seconds / 2.0)
    tracer.enabled = true
    val (withSpans, _) = loop(wl, next2, 0, seconds / 2.0)
    val probeQueries = wl.probeQueries()
    val queryOps = if (probeQueries.nonEmpty) probeQueries else plain ++ withSpans
    val ops = warm ++ plain ++ withSpans ++ probeQueries

    val probes = new Probes(wl, tracer)
    val (core, rowStore) = probes.core()
    val layers = ArrayBuffer.empty[(String, Metric)]
    def m(name: String, value: Double, unit: String): Unit = layers += name -> Metric(value, unit)
    layers ++= probes.util()
    layers ++= probes.compress()
    layers ++= probes.storage(rowStore)
    m("core.collect_ms", collectMs, "ms")
    layers ++= core

    val compile = tracer.durations("query.compile")
    m("query.compile_us_p50", Stats.median(compile) / 1e3, "us")
    m("query.compile_share",
      tracer.durationsUnder("query.compile", "op.gfcl").sum / tracer.durations("op.gfcl").sum, "ratio")
    m("engine.lbp.exec_ms_p50", Stats.median(tracer.durations("engine.lbp.count")) / 1e6, "ms")
    m("engine.volcano.exec_ms_p50", Stats.median(tracer.durations("engine.volcano.count")) / 1e6, "ms")
    m("engine.result_count", wl.resultCount.toDouble, "count")

    // Per-op latency of the loop's untraced half.
    for (role <- Seq("gfcl", "base")) {
      val ns = plain.filter(_.role == role).map(_.ns / 1e6)
      m(s"ops.${role}_ms_p50", Stats.median(ns), "ms")
      m(s"ops.${role}_ms_tail", Stats.quantile(ns, Stats.tailQuantile(ns.length)), "ms")
      m(s"ops.${role}_samples", ns.length.toDouble, "count")
      m(s"ops.${role}_qps", ns.length / (ns.sum / 1e3), "1/s")
    }

    // Spark-parallel LBP against single-threaded LBP on one 1-hop query.
    val store = wl.gfclStores.head
    val q = wl.parQuery
    val lbp = (0 until 3).map(_ => wl.calls.timed("probe.lbp")(wl.calls.lbp(store, q)))
    val par = (0 until 3).map(_ => wl.calls.timed("probe.par")(wl.calls.par(wl.spark, store, q, Workload.partitions)))
    val parFailures = if ((lbp ++ par).map(_._2).distinct.length == 1 && lbp.head._2.isDefined) Nil
                      else Seq(s"${q.name}: ParallelRunner and LBP counts differ")
    val parMs = Stats.median(par.map(_._1 / 1e6))
    m("spark.par_ms", parMs, "ms")
    m("spark.par_overhead_ms", parMs - Stats.median(lbp.map(_._1 / 1e6)), "ms")

    val nonEmpty = queryOps.filter(_.role == "gfcl").groupBy(_.template).map { case (t, os) =>
      t -> os.count(_.count > 0).toDouble / os.length
    }
    m("datasets.nonempty_frac.min", nonEmpty.values.min, "ratio")
    m("datasets.nonempty_frac.mean", nonEmpty.values.sum / nonEmpty.size, "ratio")
    m("datasets.empty_templates", nonEmpty.values.count(_ == 0).toDouble, "count")

    m("jvm.gc_ms", (gcMs() - gcBefore).toDouble, "ms")
    val untracedMs = geomeanOfMedians(plain)
    val tracedMs = geomeanOfMedians(withSpans)
    m("trace.overhead_ms", tracedMs - untracedMs, "ms")
    m("trace.spans", tracer.numSpans.toDouble, "count")

    val stem = s"${wl.getClass.getSimpleName}-seed${wl.seed}"
    tracer.writeTo(outDir.resolve("traces"), stem)
    writeNonEmpty(outDir.resolve("traces").resolve(s"$stem.nonempty.csv"), nonEmpty)
    result(ops, probes.failures.toSeq ++ parFailures, layers.toSeq)
  }

  /** Geometric mean over (template, system) of the median op time. */
  private def geomeanOfMedians(ops: Seq[Op]): Double =
    Stats.geomean(ops.groupBy(o => (o.template, o.role)).values.map(os => Stats.median(os.map(_.ns / 1e6))).toSeq)

  private def writeNonEmpty(path: java.nio.file.Path, frac: Map[String, Double]): Unit = {
    val lines = "template,nonempty_frac" +: frac.toSeq.sorted.map { case (t, f) => s"$t,$f" }
    java.nio.file.Files.write(path, lines.asJava)
  }

  private def gcMs(): Long =
    java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def info(wl: Workload, seconds: Int): Seq[(String, String)] = Seq(
    "workload" -> wl.getClass.getSimpleName,
    "seed" -> wl.seed.toString,
    "seconds" -> seconds.toString,
    "cores" -> Runtime.getRuntime.availableProcessors.toString,
    "spark_parallelism" -> Workload.partitions.toString,
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
    "heap_max_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
    "scale" -> wl.scale,
    "vertices" -> wl.datasets.map(_.vertexCounts.map(_.toLong).sum).sum.toString,
    "edges" -> wl.datasets.map(g => g.schema.edges.indices.map(g.edgeCount(_).toLong).sum).sum.toString,
    "dataset_fingerprint" -> f"${Fingerprint(wl.datasets)}%016x")
}

/** A hash of collected datasets: counts, endpoints and property values. */
object Fingerprint {
  def apply(gs: Seq[CollectedGraph]): Long = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h ^= x; h *= 0x100000001b3L; h ^= h >>> 29 }
    def mixProps(ps: Array[AnyRef]): Unit = ps.foreach {
      case a: Array[Long] => a.foreach(mix)
      case a: Array[String] => a.foreach(s => mix(if (s == null) 0L else s.hashCode.toLong))
    }
    gs.foreach { g =>
      g.vertexCounts.foreach(c => mix(c.toLong))
      g.vertexProps.foreach(mixProps)
      g.edgeSrc.foreach(_.foreach(x => mix(x.toLong)))
      g.edgeDst.foreach(_.foreach(x => mix(x.toLong)))
      g.edgeProps.foreach(mixProps)
    }
    h
  }
}
