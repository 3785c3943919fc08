package repro.engine

import repro.core.{GraphStore, Values}
import repro.query._
import repro.storage.{CsrAdjacency, GlobalIdEdgeProps, PropertyPages, SingleAdjacency, VColOwnerEdgeProps}
import repro.util.ByteWidthArray

/** List-based processor — LBP (paper §6). Intermediate tuples are a set of
  * factorized ''list groups'' (flat when `curIdx >= 0`, otherwise an unflat
  * list of tuples); blocks have variable lengths equal to adjacency-list
  * lengths and point directly into the CSR arrays instead of materializing
  * lists (ListExtend), and `count(*)` multiplies group sizes instead of
  * enumerating tuples (§6.2).
  */
object Lbp {

  /** A block of values: the engine's read-only view over CSR slices,
    * scratch arrays, scan ranges, or a single value.
    */
  sealed trait LongReader {
    def get(i: Int): Long
  }
  // Readers are allocated once per operator and re-pointed per list —
  // block processors reuse their vector objects, so LBP does no per-list
  // allocation on the hot path.
  private final class RangeReader extends LongReader {
    var start: Long = 0L
    def get(i: Int): Long = start + i
  }
  /** A reader re-pointed at each adjacency list (of vertex `own`, starting
    * at slot `off`).
    */
  private sealed abstract class SlotReader extends LongReader {
    var off: Int = 0
    def point(start: Int, own: Long): Unit = off = start
  }
  /** Points into an adjacency array — no copy (paper §6.2, ListExtend). */
  private final class SliceReader(a: ByteWidthArray) extends SlotReader {
    def get(i: Int): Long = a.get(off + i)
  }
  private final class ScratchReader extends LongReader {
    var a: Array[Long] = null
    def get(i: Int): Long = a(i)
  }
  /** Forward property-page handles: the page base is fixed for the whole
    * adjacency list, so handles are base + page-level offsets.
    */
  private final class BasedSliceReader(pages: PropertyPages, ev: ByteWidthArray) extends SlotReader {
    private var base: Long = 0L
    override def point(start: Int, own: Long): Unit = { off = start; base = pages.pageBase(own) }
    def get(i: Int): Long = base + ev.get(off + i)
  }
  /** Backward property-page handles: pageBase(neighbour) + page offset,
    * with the page store bound directly (no generic handle dispatch).
    */
  private final class BwdPageHandleReader(pages: PropertyPages,
                                          ev: ByteWidthArray, nbrs: ByteWidthArray) extends SlotReader {
    def get(i: Int): Long = pages.pageBase(nbrs.get(off + i)) + ev.get(off + i)
  }
  private final class ConstReader extends LongReader {
    var value: Long = 0L
    def get(i: Int): Long = value
  }

  /** One factorized group of equal-length blocks (paper §6.1). */
  private final class ListGroup {
    var size: Int = 0
    var sel: Array[Int] = null // selection vector over [0, size); null = all
    var selLen: Int = 0
    var curIdx: Int = -1       // >= 0: flattened to that position

    def numPos: Int = if (sel != null) selLen else size
    @inline def posAt(i: Int): Int = if (sel != null) sel(i) else i
    def tupleCount: Long = if (curIdx >= 0) 1L else numPos.toLong
  }

  /** The intermediate chunk: the Cartesian product of its list groups. */
  private final class Chunk(numV: Int, numE: Int) {
    val groups = scala.collection.mutable.ArrayBuffer.empty[ListGroup]
    val vGroup = Array.fill(numV)(-1)
    val vReader = new Array[LongReader](numV)
    val eGroup = Array.fill(numE)(-1)
    val eReader = new Array[LongReader](numE)

    def newGroup(): Int = { groups += new ListGroup; groups.length - 1 }

    def tupleCount: Long = {
      var prod = 1L
      var i = 0
      while (i < groups.length) { prod *= groups(i).tupleCount; i += 1 }
      prod
    }
  }

  private abstract class Op {
    def open(): Unit
    def next(): Boolean
  }

  /** Filter the group's positions by the compiled predicates; returns
    * whether the state is still alive. Operand bindings are resolved once
    * per block; the comparison runs in a tight loop (paper §6.2: all
    * primitive computations happen inside loops over blocks). Selection
    * compaction is in place (writes trail reads).
    */
  private def filterGroup(preds: Array[CompiledPred], gi: Int, g: ListGroup,
                          buf: Array[Int], chunk: Chunk): Boolean = {
    var j = 0
    while (j < preds.length) {
      if (!applyPred(preds(j), gi, g, chunk, buf)) return false
      j += 1
    }
    g.tupleCount > 0
  }

  private def readerOf(chunk: Chunk, r: OperandRef): LongReader =
    if (r.isEdge) chunk.eReader(r.slot) else chunk.vReader(r.slot)
  private def groupOf(chunk: Chunk, r: OperandRef): Int =
    if (r.isEdge) chunk.eGroup(r.slot) else chunk.vGroup(r.slot)

  /** Value of an operand whose group is flattened. */
  private def flatValue(chunk: Chunk, r: OperandRef): Long = {
    val grp = chunk.groups(groupOf(chunk, r))
    assert(grp.curIdx >= 0, "non-active operand must be in a flattened group")
    r.access(readerOf(chunk, r).get(grp.curIdx))
  }

  private def isActive(chunk: Chunk, r: OperandRef, gi: Int, g: ListGroup): Boolean =
    groupOf(chunk, r) == gi && g.curIdx < 0

  private def applyPred(pred: CompiledPred, gi: Int, g: ListGroup, chunk: Chunk,
                        buf: Array[Int]): Boolean =
    pred match {
      case c: CmpPred =>
        val lhsActive = isActive(chunk, c.lhs, gi, g)
        val rhsActive = c.rhs != null && isActive(chunk, c.rhs, gi, g)
        val op = c.op.code
        if (!lhsActive && !rhsActive) {
          // Fully flat: evaluate once for the current tuple.
          val a = flatValue(chunk, c.lhs)
          val b = if (c.rhs == null) c.const else flatValue(chunk, c.rhs)
          return a != Values.Null && b != Values.Null && CmpOp.holds(op, a, b)
        }
        val nPos = g.numPos
        var n = 0
        if (lhsActive && !rhsActive) {
          val rd = readerOf(chunk, c.lhs)
          val access = c.lhs.access
          val b = if (c.rhs == null) c.const else flatValue(chunk, c.rhs)
          if (b == Values.Null) { g.sel = buf; g.selLen = 0; return false }
          var i = 0
          while (i < nPos) {
            val p = g.posAt(i)
            val x = access(rd.get(p))
            if (x != Values.Null && CmpOp.holds(op, x, b)) { buf(n) = p; n += 1 }
            i += 1
          }
        } else if (!lhsActive && rhsActive) {
          val a = flatValue(chunk, c.lhs)
          if (a == Values.Null) { g.sel = buf; g.selLen = 0; return false }
          val rd = readerOf(chunk, c.rhs)
          val access = c.rhs.access
          val mop = c.op.flip.code
          var i = 0
          while (i < nPos) {
            val p = g.posAt(i)
            val x = access(rd.get(p))
            if (x != Values.Null && CmpOp.holds(mop, x, a)) { buf(n) = p; n += 1 }
            i += 1
          }
        } else {
          // Both operands in the active group (e.g. edge vs neighbour prop).
          val rdL = readerOf(chunk, c.lhs)
          val accL = c.lhs.access
          val rdR = readerOf(chunk, c.rhs)
          val accR = c.rhs.access
          var i = 0
          while (i < nPos) {
            val p = g.posAt(i)
            val a = accL(rdL.get(p))
            val b = accR(rdR.get(p))
            if (a != Values.Null && b != Values.Null && CmpOp.holds(op, a, b)) { buf(n) = p; n += 1 }
            i += 1
          }
        }
        g.sel = buf
        g.selLen = n
        n > 0

      case s: CodeSetPred =>
        if (!isActive(chunk, s.lhs, gi, g)) {
          val a = flatValue(chunk, s.lhs)
          return a != Values.Null && java.util.Arrays.binarySearch(s.codes, a) >= 0
        }
        val rd = readerOf(chunk, s.lhs)
        val access = s.lhs.access
        val codes = s.codes
        val nPos = g.numPos
        var n = 0
        var i = 0
        while (i < nPos) {
          val p = g.posAt(i)
          val x = access(rd.get(p))
          if (x != Values.Null && java.util.Arrays.binarySearch(codes, x) >= 0) { buf(n) = p; n += 1 }
          i += 1
        }
        g.sel = buf
        g.selLen = n
        n > 0

      case _: RowStrPred =>
        throw new IllegalStateException("raw-string predicates exist only on row storage")
    }

  private final class LScan(step: ScanStep, n: Int, chunk: Chunk,
                            blockSize: Int, lo: Int, hi: Int) extends Op {
    private val gi = chunk.newGroup()
    chunk.vGroup(step.vSlot) = gi
    private val g = chunk.groups(gi)
    private val buf = new Array[Int](blockSize)
    private val range = new RangeReader
    chunk.vReader(step.vSlot) = range
    private var cur = lo

    def open(): Unit = { cur = lo }
    def next(): Boolean = {
      while (cur < hi) {
        val size = math.min(blockSize, hi - cur)
        g.size = size
        g.sel = null
        g.curIdx = -1
        range.start = cur
        cur += size
        if (filterGroup(step.preds, gi, g, buf, chunk)) return true
      }
      false
    }
  }

  /** n-n / 1-n join: flattens the input group and emits the adjacency list
    * of each input value as a new unflat group whose blocks point into the
    * CSR (no materialization).
    */
  private final class LListExtend(child: Op, step: ExtendStep, chunk: Chunk) extends Op {
    private val adj = step.adj.asInstanceOf[CsrAdjacency]
    private val inGi = chunk.vGroup(step.fromSlot)
    private val inG = chunk.groups(inGi)
    private val gi = chunk.newGroup()
    private val g = chunk.groups(gi)
    chunk.vGroup(step.toSlot) = gi
    if (step.eSlot >= 0) chunk.eGroup(step.eSlot) = gi
    private var buf = new Array[Int](1024)
    private var inPos = 0
    private var inLen = 0
    private var inWasFlat = false

    private val nbrReader = new SliceReader(adj.nbrs)
    chunk.vReader(step.toSlot) = nbrReader
    // Edge-handle reader, chosen once per step by the label's property
    // store (GraphLoader.build decides the store together with the list's
    // edge values).
    private val edgeReader: SlotReader = if (step.eSlot < 0) null else step.props match {
      case pages: PropertyPages =>
        if (step.forward) new BasedSliceReader(pages, adj.edgeVals)
        else new BwdPageHandleReader(pages, adj.edgeVals, adj.nbrs)
      case _: GlobalIdEdgeProps => new SliceReader(adj.edgeVals)
      case owner: VColOwnerEdgeProps =>
        // Lists run away from the single-cardinality owner: the handle is the neighbour.
        require(owner.ownerIsSrc != step.forward, "owner-column properties behind an owner-side CSR")
        nbrReader
      case other => throw new IllegalStateException(s"LBP reads no edge properties from $other")
    }
    if (edgeReader != null) chunk.eReader(step.eSlot) = edgeReader

    def open(): Unit = { child.open(); inPos = 0; inLen = 0 }

    def next(): Boolean = {
      while (true) {
        if (inPos >= inLen) {
          if (!child.next()) return false
          inWasFlat = inG.curIdx >= 0
          inLen = if (inWasFlat) 1 else inG.numPos
          inPos = 0
        }
        if (!inWasFlat) inG.curIdx = inG.posAt(inPos) // flatten step by step
        inPos += 1
        val own = chunk.vReader(step.fromSlot).get(inG.curIdx)
        val s = adj.start(own.toInt)
        if (s >= 0) {
          val e = adj.end(own.toInt)
          g.size = e - s
          g.sel = null
          g.curIdx = -1
          if (buf.length < g.size) buf = new Array[Int](Integer.highestOneBit(g.size - 1) << 1)
          nbrReader.off = s
          if (edgeReader != null) edgeReader.point(s, own)
          if (filterGroup(step.preds, gi, g, buf, chunk)) return true
        }
      }
      false
    }
  }

  /** 1-1 / n-1 join over a vertex-column adjacency: appends blocks to the
    * input's own group (values need not be factored out), gathering the
    * single neighbour per position and dropping positions without one.
    */
  private final class LColumnExtend(child: Op, step: ExtendStep, chunk: Chunk) extends Op {
    private val adj = step.adj.asInstanceOf[SingleAdjacency]
    private val gi = chunk.vGroup(step.fromSlot)
    private val g = chunk.groups(gi)
    chunk.vGroup(step.toSlot) = gi
    if (step.eSlot >= 0) chunk.eGroup(step.eSlot) = gi
    private var scratch = new Array[Long](1024)
    private var hScratch: Array[Long] = null
    private var selBuf = new Array[Int](1024)
    private val flatNbr = new ConstReader
    private val flatHandle = new ConstReader
    private val scratchReader = new ScratchReader
    private val hScratchReader = new ScratchReader

    def open(): Unit = child.open()

    def next(): Boolean = {
      while (child.next()) {
        if (g.curIdx >= 0) {
          val own = chunk.vReader(step.fromSlot).get(g.curIdx)
          val nbr = adj.nbr(own.toInt)
          if (nbr != Values.Null) {
            flatNbr.value = nbr
            chunk.vReader(step.toSlot) = flatNbr
            if (step.eSlot >= 0) {
              flatHandle.value = step.props.handle(own, nbr, 0L, step.forward)
              chunk.eReader(step.eSlot) = flatHandle
            }
            if (filterGroup(step.preds, gi, g, selBuf, chunk)) return true
          }
        } else {
          if (scratch.length < g.size) {
            val cap = Integer.highestOneBit(g.size - 1) << 1
            scratch = new Array[Long](cap)
            selBuf = new Array[Int](cap)
            if (hScratch != null) hScratch = new Array[Long](cap)
          }
          if (step.eSlot >= 0 && hScratch == null) hScratch = new Array[Long](scratch.length)
          val nPos = g.numPos
          var n = 0
          var i = 0
          while (i < nPos) {
            val p = g.posAt(i)
            val own = chunk.vReader(step.fromSlot).get(p)
            val nbr = adj.nbr(own.toInt)
            if (nbr != Values.Null) {
              scratch(p) = nbr
              if (hScratch != null) hScratch(p) = step.props.handle(own, nbr, 0L, step.forward)
              selBuf(n) = p
              n += 1
            }
            i += 1
          }
          g.sel = selBuf
          g.selLen = n
          scratchReader.a = scratch
          chunk.vReader(step.toSlot) = scratchReader
          if (step.eSlot >= 0) { hScratchReader.a = hScratch; chunk.eReader(step.eSlot) = hScratchReader }
          if (n > 0 && filterGroup(step.preds, gi, g, selBuf, chunk)) return true
        }
      }
      false
    }
  }

  /** Run a plan, returning count(*): per chunk state, the product of group
    * sizes — aggregation on the compressed (factorized) representation.
    */
  def count(store: GraphStore, plan: Plan, blockSize: Int = 1024): Long =
    countRange(store, plan, 0, store.vertexCounts(plan.scan.label), blockSize)

  /** Count over a sub-range of the scan — the unit of parallelism for
    * [[repro.spark.ParallelRunner]].
    */
  def countRange(store: GraphStore, plan: Plan, lo: Int, hi: Int, blockSize: Int = 1024): Long = {
    require(store.columnar, "LBP runs on columnar stores (GF-CL / GF-CV storage)")
    val chunk = new Chunk(plan.numVSlots, plan.numESlots)
    var op: Op = new LScan(plan.scan, store.vertexCounts(plan.scan.label), chunk, blockSize, lo, hi)
    plan.extendSteps.foreach { s =>
      op = if (s.single) new LColumnExtend(op, s, chunk) else new LListExtend(op, s, chunk)
    }
    op.open()
    var total = 0L
    while (op.next()) total += chunk.tupleCount
    total
  }

  def count(store: GraphStore, q: Query): Long = count(store, Compiler.compile(q, store))
}
