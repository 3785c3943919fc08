package repro.perfbench

import repro.compress.{Dictionary, JacobsonIndex, NullCompressedColumn}
import repro.core._
import repro.storage.{CsrAdjacency, PropertyPages, VColumn}
import repro.util.ByteWidthArray

import scala.collection.mutable.ArrayBuffer

/** Layer probes of the traced run: direct calls into the public functions
  * of `util`, `compress`, `storage` and `core`, on the workload's own
  * stores or on arrays generated from the seed. A nanosecond-scale call
  * gets no span of its own; each timed batch of calls is one span, and the
  * batch's call count is recorded beside it.
  */
final class Probes(wl: Workload, tracer: Tracer) {
  private val seed = wl.seed
  private val rnd = new java.util.Random(seed * 7919 + 17)
  private val n = 1 << 20
  private val randIdx: Array[Int] = Array.fill(n)(rnd.nextInt(n))
  val failures = ArrayBuffer.empty[String]

  private def check(ok: Boolean, what: => String): Unit = if (!ok) failures += what

  /** Median nanoseconds per call over seven timed batches, after three
    * untimed ones for the JIT. `batch` returns a checksum, compared on
    * every batch.
    */
  private def nsPerCall(name: String, calls: Long)(batch: => Long): Double = {
    val first = batch
    (0 until 2).foreach(_ => check(batch == first, s"$name: checksum changed between batches"))
    val times = (0 until 7).map { _ =>
      val t0 = System.nanoTime()
      val r = tracer.span(name)(batch)
      val dt = System.nanoTime() - t0
      tracer.count(name, calls)
      check(r == first, s"$name: checksum changed between batches")
      dt.toDouble / calls
    }
    Stats.median(times)
  }

  private def m(name: String, value: Double, unit: String) = name -> Metric(value, unit)

  def util(): Seq[(String, Metric)] = Seq(1, 2, 4, 8).flatMap { w =>
    val max = if (w == 8) Long.MaxValue else (1L << (8 * w)) - 1
    val values = Array.fill(n)(rnd.nextLong() & max)
    val a = ByteWidthArray.at(values, w)
    val want = values.sum
    val seq = nsPerCall(s"util.bwa_get.w$w.seq", n) {
      var s = 0L; var i = 0
      while (i < n) { s += a.get(i); i += 1 }
      s
    }
    check({ var s = 0L; var i = 0; while (i < n) { s += a.get(i); i += 1 }; s == want },
      s"ByteWidthArray w$w: values differ")
    val rand = nsPerCall(s"util.bwa_get.w$w.rand", n) {
      var s = 0L; var i = 0
      while (i < n) { s += a.get(randIdx(i)); i += 1 }
      s
    }
    Seq(m(s"util.bwa_get_ns.w$w.seq", seq, "ns"), m(s"util.bwa_get_ns.w$w.rand", rand, "ns"))
  }

  def compress(): Seq[(String, Metric)] = {
    val present = Array.fill(n)(rnd.nextBoolean())
    val prefix = new Array[Long](n + 1)
    (0 until n).foreach(i => prefix(i + 1) = prefix(i) + (if (present(i)) 1 else 0))
    val ranks = Seq(8, 16).map { c =>
      val idx = JacobsonIndex(present, c, 16)
      (0 until n by 4099).foreach(p => check(idx.rank(p) == prefix(p), s"rank c=$c at $p"))
      m(s"compress.rank_ns.c$c", nsPerCall(s"compress.rank.c$c", n) {
        var s = 0L; var i = 0
        while (i < n) { s += idx.rank(randIdx(i)); i += 1 }
        s
      }, "ns")
    }
    val dense = Array.tabulate(n)(i => if (present(i)) (i % 100000).toLong else NullCompressedColumn.Null)
    val col = NullCompressedColumn(dense)
    (0 until n by 4099).foreach(p => check(col.get(p) == dense(p), s"NullCompressedColumn at $p"))
    val nullGet = nsPerCall("compress.nullcol_get", n) {
      var s = 0L; var i = 0
      while (i < n) { s += col.get(randIdx(i)); i += 1 }
      s
    }
    val words = Array.tabulate(20000)(i => f"w${(i * 7919L + seed) % 1000003}%07d")
    val dict = Dictionary.fromValues(words.iterator)
    val want = words.distinct.count(_.contains("77"))
    val dictUs = nsPerCall("compress.dict_codes", 1) {
      val codes = dict.codesWhere(_.contains("77"))
      check(codes.size == want, "Dictionary.codesWhere size")
      codes.size.toLong
    } / 1e3
    ranks ++ Seq(m("compress.nullcol_get_ns", nullGet, "ns"), m("compress.dict_codes_us", dictUs, "us"))
  }

  def storage(rowStore: GraphStore): Seq[(String, Metric)] = {
    // CSR offsets over generated list lengths, half of the lists empty:
    // enough empties that the NULL-compressed form is chosen.
    val lens = Array.fill(n)(if (rnd.nextBoolean()) 0 else 1 + rnd.nextInt(20))
    val total = lens.map(_.toLong).sum
    val want = randIdx.iterator.map(v => lens(v).toLong).sum
    val starts = Seq(false -> "plain", true -> "null").map { case (nullCompress, kind) =>
      val csr = new CsrAdjacency(
        CsrAdjacency.buildOffsets(lens, suppress = true, nullCompress, threshold = 0.05, c = 16, m = 16),
        ByteWidthArray.at(new Array[Long](total.toInt), 1), null)
      val ns = nsPerCall(s"storage.csr_start.$kind", n) {
        var s = 0L; var i = 0
        while (i < n) {
          val v = randIdx(i)
          val st = csr.start(v)
          if (st >= 0) s += csr.end(v) - st
          i += 1
        }
        s
      }
      check({
        var s = 0L; randIdx.foreach { v => val st = csr.start(v); if (st >= 0) s += csr.end(v) - st }; s == want
      }, s"CSR $kind offsets: list lengths differ")
      m(s"storage.csr_start_ns.$kind", ns, "ns")
    }

    // Forward and backward reads of the largest property-page label.
    val store = wl.gfclStores.head
    val g = wl.datasets.head
    val schema = store.schema
    val ei = schema.edges.indices
      .filter(e => store.edgeProps(e).isInstanceOf[PropertyPages] && schema.edges(e).props.head.ptype == PLongT)
      .maxBy(e => store.edgeCounts(e))
    val pages = store.edgeProps(ei).asInstanceOf[PropertyPages]
    val nE = store.edgeCounts(ei).toLong
    val propSum = g.edgeProps(ei)(0).asInstanceOf[Array[Long]].filter(_ != Values.Null).sum
    def pageReads(forward: Boolean): Long = {
      val adj = store.adjacency(ei, forward).asInstanceOf[CsrAdjacency]
      val nv = store.vertexCounts(if (forward) schema.srcLabelOf(ei) else schema.dstLabelOf(ei))
      var s = 0L; var v = 0
      while (v < nv) {
        val st = adj.start(v)
        if (st >= 0) {
          var i = st; val end = adj.end(v)
          while (i < end) {
            val x = pages.getLong(pages.handle(v, adj.nbr(i), adj.edgeVal(i), forward), 0)
            if (x != Values.Null) s += x
            i += 1
          }
        }
        v += 1
      }
      s
    }
    val fwd = nsPerCall("storage.pages_get.fwd", nE)(pageReads(forward = true))
    val bwd = nsPerCall("storage.pages_get.bwd", nE)(pageReads(forward = false))
    check(pageReads(true) == propSum && pageReads(false) == propSum,
      s"${schema.edges(ei).name}: property-page sums differ from the collected values")

    val nbrNs = {
      val adj = store.adjacency(ei, true).asInstanceOf[CsrAdjacency]
      val nv = store.vertexCounts(schema.srcLabelOf(ei))
      val dstSum = g.edgeDst(ei).map(_.toLong).sum
      nsPerCall("storage.csr_nbr", nE) {
        var s = 0L; var v = 0
        while (v < nv) {
          val st = adj.start(v)
          if (st >= 0) { var i = st; val end = adj.end(v); while (i < end) { s += adj.nbr(i); i += 1 } }
          v += 1
        }
        check(s == dstSum, "CSR neighbours differ from the collected edges")
        s
      }
    }

    // Vertex columns over generated values, 30 % NULL.
    val dense = Array.fill(n)(if (rnd.nextInt(10) < 3) Values.Null else rnd.nextInt(1000000).toLong)
    val vcols = Seq(false -> "plain", true -> "null").map { case (nullCompress, kind) =>
      val col = VColumn(dense, suppress = true, nullCompress = nullCompress)
      (0 until n by 4099).foreach(p => check(col.get(p) == dense(p), s"VColumn $kind at $p"))
      m(s"storage.vcol_get_ns.$kind", nsPerCall(s"storage.vcol_get.$kind", n) {
        var s = 0L; var i = 0
        while (i < n) { s += col.get(randIdx(i)); i += 1 }
        s
      }, "ns")
    }

    // GF-RV record reads: the last numeric property of the largest label
    // (the longest key scan).
    val li = rowStore.vertexCounts.indices.filter(l => schema.vertices(l).props.exists(_.ptype == PLongT))
      .maxBy(rowStore.vertexCounts(_))
    val pi = schema.vertices(li).props.lastIndexWhere(_.ptype == PLongT)
    val nv = rowStore.vertexCounts(li)
    val vals = g.vertexProps(li)(pi).asInstanceOf[Array[Long]]
    val rowNs = nsPerCall("storage.row_read", n) {
      var s = 0L; var i = 0
      while (i < n) { val v = randIdx(i) % nv; s += rowStore.vertexLong(li, v, pi); i += 1 }
      s
    }
    (0 until nv by 101).foreach(v => check(rowStore.vertexLong(li, v, pi) == vals(v), s"GF-RV row $v"))

    starts ++ Seq(m("storage.csr_nbr_ns", nbrNs, "ns"),
      m("storage.pages_get_ns.fwd", fwd, "ns"), m("storage.pages_get_ns.bwd", bwd, "ns")) ++
      vcols ++ Seq(m("storage.row_read_ns", rowNs, "ns"))
  }

  /** Builds every ladder config of each dataset once: build time, walked
    * bytes and the store's own `totalBytes` over walked bytes. Returns the
    * metrics and the GF-RV store of the first dataset.
    */
  def core(): (Seq[(String, Metric)], GraphStore) = {
    var rowStore: GraphStore = null
    val perCfg = StorageConfig.ladder.map { c =>
      var ns = 0L; var alloc = 0L; var reported = 0L
      var parts = Seq.empty[(String, Long)]
      wl.datasets.zipWithIndex.foreach { case (g, di) =>
        val t0 = System.nanoTime()
        val s = tracer.span(s"core.build.${Probes.key(c)}")(GraphLoader.build(g, c))
        ns += System.nanoTime() - t0
        val comps = HeapWalker.storeComponents(s)
        alloc += comps.map(_._2).sum
        reported += s.totalBytes
        if (c == StorageConfig.GFCL) parts = if (parts.isEmpty) comps else parts.zip(comps).map {
          case ((k, a), (_, b)) => k -> (a + b)
        }
        if (c == StorageConfig.GFRV && di == 0) rowStore = s
      }
      val k = Probes.key(c)
      Seq(m(s"core.build_ms.$k", ns / 1e6, "ms"), m(s"core.alloc_mb.$k", alloc / 1e6, "MB"),
        m(s"core.reported_over_alloc.$k", reported.toDouble / alloc, "ratio")) ++
        parts.filter(_._1 != "other").map { case (part, b) => m(s"core.alloc_mb.gfcl.$part", b / 1e6, "MB") }
    }
    (perCfg.flatten, rowStore)
  }
}

object Probes {
  def key(c: StorageConfig): String = c match {
    case StorageConfig.GFRV   => "gfrv"
    case StorageConfig.COLS   => "cols"
    case StorageConfig.NEWIDS => "newids"
    case StorageConfig.ZSUPR  => "zsupr"
    case StorageConfig.GFCL   => "gfcl"
    case other => throw new IllegalArgumentException(s"not a ladder config: $other")
  }
}
