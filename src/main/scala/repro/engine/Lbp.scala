package repro.engine

import repro.core.{GraphStore, Values}
import repro.query._
import repro.storage.{CsrAdjacency, LongReader, SingleAdjacency, SliceReader}

/** List-based processor — LBP (paper §6). Intermediate tuples are a set of
  * factorized ''list groups'' (flat when `curIdx >= 0`, otherwise an unflat
  * list of tuples); blocks have variable lengths equal to adjacency-list
  * lengths and point directly into the CSR arrays instead of materializing
  * lists (ListExtend), and `count(*)` multiplies group sizes instead of
  * enumerating tuples (§6.2). When the last ListExtend has no predicates,
  * its lists are not visited at all; only their lengths are summed.
  */
object Lbp {

  /** The scan's offsets: `start + i`. */
  private final class RangeReader extends LongReader {
    var start: Long = 0L
    def get(i: Int): Long = start + i
    def gather(sel: Array[Int], n: Int, out: Array[Long]): Unit = {
      var i = 0
      if (sel == null) while (i < n) { out(i) = start + i; i += 1 }
      else while (i < n) { out(i) = start + sel(i); i += 1 }
    }
  }
  /** ColumnExtend's neighbours, by position in the group. */
  private final class ScratchReader extends LongReader {
    var a: Array[Long] = new Array[Long](1024)
    def get(i: Int): Long = a(i)
    def gather(sel: Array[Int], n: Int, out: Array[Long]): Unit = {
      var i = 0
      if (sel == null) System.arraycopy(a, 0, out, 0, n)
      else while (i < n) { out(i) = a(sel(i)); i += 1 }
    }
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

  /** The intermediate chunk: the Cartesian product of its list groups
    * (one for the scan and one per ListExtend), plus the value scratch its
    * filters gather into. Each slot's reader is set once, by the operator
    * that binds the slot. As a [[ReadCtx]] it gives each slot's value at
    * its flattened group's current position.
    */
  private final class Chunk(numV: Int, numE: Int, numGroups: Int) extends ReadCtx {
    val groups = new Array[ListGroup](numGroups)
    private var nGroups = 0
    val vGroup = Array.fill(numV)(-1)
    val vReader = new Array[LongReader](numV)
    val eGroup = Array.fill(numE)(-1)
    val eReader = new Array[LongReader](numE)
    var xs = new Array[Long](1024)
    var ys = new Array[Long](1024)

    def newGroup(): Int = { groups(nGroups) = new ListGroup; nGroups += 1; nGroups - 1 }

    def v(slot: Int): Long = flat(vReader(slot), vGroup(slot))
    def e(slot: Int): Long = flat(eReader(slot), eGroup(slot))
    private def flat(r: LongReader, gi: Int): Long = {
      val grp = groups(gi)
      assert(grp.curIdx >= 0, "non-active operand must be in a flattened group")
      r.get(grp.curIdx)
    }

    /** Grow the value scratch to hold `n` values. */
    def reserve(n: Int): Unit = if (xs.length < n) {
      xs = new Array[Long](capacity(n))
      ys = new Array[Long](xs.length)
    }

    def tupleCount: Long = {
      var prod = 1L
      var i = 0
      while (i < groups.length) { prod *= groups(i).tupleCount; i += 1 }
      prod
    }

    /** The product of every group's size but groups `a` and `b`. */
    def tupleCountExcept(a: Int, b: Int): Long = {
      var prod = 1L
      var i = 0
      while (i < groups.length) {
        if (i != a && i != b) prod *= groups(i).tupleCount
        i += 1
      }
      prod
    }
  }

  /** The power of two at or above `n`: how scratch arrays grow. */
  private def capacity(n: Int): Int = if (n <= 1) 1 else Integer.highestOneBit(n - 1) << 1

  private abstract class Op {
    def open(): Unit
    def next(): Boolean
  }

  /** Filter the group's positions by the compiled predicates; returns
    * whether the state is still alive. Each predicate on an active operand
    * runs as three block primitives: gather the handles, gather their
    * values, and select the passing positions (paper §6.2: all primitive
    * computations happen inside loops over blocks). Selection compaction
    * is in place (writes trail reads).
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

  /** The values of active operand `r` at the group's positions, in `out`. */
  private def gatherValues(chunk: Chunk, r: OperandRef, g: ListGroup, out: Array[Long]): Unit = {
    readerOf(chunk, r).gather(g.sel, g.numPos, out)
    r.gather(out, g.numPos, out)
  }

  /** An operand is active when it is in unflat group `gi`; a predicate
    * with no active operand is evaluated once, for the current tuple.
    */
  private def applyPred(pred: CompiledPred, gi: Int, g: ListGroup, chunk: Chunk,
                        buf: Array[Int]): Boolean = {
    def active(r: OperandRef): Boolean = r != null && g.curIdx < 0 && groupOf(chunk, r) == gi
    val nPos = g.numPos
    chunk.reserve(nPos)
    val xs = chunk.xs
    val n = pred match {
      case c: CmpPred if active(c.lhs) && active(c.rhs) =>
        // Both operands in the active group (e.g. edge vs neighbour prop).
        gatherValues(chunk, c.lhs, g, xs)
        gatherValues(chunk, c.rhs, g, chunk.ys)
        CmpOp.selectPairs(c.op.code, xs, chunk.ys, nPos, g.sel, buf)
      case c: CmpPred if active(c.lhs) =>
        gatherValues(chunk, c.lhs, g, xs)
        CmpOp.select(c.op.code, xs, nPos, if (c.rhs == null) c.const else c.rhs.read(chunk), g.sel, buf)
      case c: CmpPred if active(c.rhs) =>
        gatherValues(chunk, c.rhs, g, xs)
        CmpOp.select(c.op.flip.code, xs, nPos, c.lhs.read(chunk), g.sel, buf)
      case s: CodeSetPred if active(s.lhs) =>
        gatherValues(chunk, s.lhs, g, xs)
        CmpOp.selectIn(s.codes, xs, nPos, g.sel, buf)
      case _ => return pred.eval(chunk)
    }
    g.sel = buf
    g.selLen = n
    n > 0
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
    * CSR (no materialization). The bounds of every list of an input block
    * come from one `CsrOffsets.ranges` call. As a plan's last step with no
    * predicates of its own it is the counting tail (`countAll`): it emits
    * no list and sums their lengths instead.
    */
  private final class LListExtend(child: Op, val step: ExtendStep, chunk: Chunk) extends Op {
    private val adj = step.adj.asInstanceOf[CsrAdjacency]
    private val inGi = chunk.vGroup(step.fromSlot)
    private val inG = chunk.groups(inGi)
    private val gi = chunk.newGroup()
    private val g = chunk.groups(gi)
    chunk.vGroup(step.toSlot) = gi
    if (step.eSlot >= 0) chunk.eGroup(step.eSlot) = gi
    private var buf = new Array[Int](1024)
    // The input block's owners and their list bounds (start -1: empty).
    private var owners = new Array[Long](1024)
    private var starts = new Array[Int](1024)
    private var ends = new Array[Int](1024)
    private var inPos = 0
    private var inLen = 0
    private var inWasFlat = false

    private val nbrReader = new SliceReader(adj.nbrs)
    chunk.vReader(step.toSlot) = nbrReader
    // The label's edge-ID rule in block form.
    private val edgeReader = if (step.eSlot < 0) null else step.props.listHandles(adj, step.forward, nbrReader)
    if (edgeReader != null) chunk.eReader(step.eSlot) = edgeReader

    def open(): Unit = { child.open(); inPos = 0; inLen = 0 }

    /** Read the next input block's owners and the bounds of their lists. */
    private def nextInput(): Boolean = {
      if (!child.next()) return false
      inWasFlat = inG.curIdx >= 0
      inLen = if (inWasFlat) 1 else inG.numPos
      inPos = 0
      if (owners.length < inLen) {
        owners = new Array[Long](capacity(inLen))
        starts = new Array[Int](owners.length)
        ends = new Array[Int](owners.length)
      }
      val rd = chunk.vReader(step.fromSlot)
      if (inWasFlat) owners(0) = rd.get(inG.curIdx) else rd.gather(inG.sel, inLen, owners)
      adj.offsets.ranges(owners, inLen, starts, ends)
      true
    }

    def next(): Boolean = {
      while (true) {
        if (inPos >= inLen && !nextInput()) return false
        val i = inPos
        inPos += 1
        if (!inWasFlat) inG.curIdx = inG.posAt(i) // flatten step by step
        val s = starts(i)
        if (s >= 0) {
          g.size = ends(i) - s
          g.sel = null
          g.curIdx = -1
          if (buf.length < g.size) buf = new Array[Int](capacity(g.size))
          nbrReader.off = s
          if (edgeReader != null) edgeReader.point(s, owners(i))
          if (filterGroup(step.preds, gi, g, buf, chunk)) return true
        }
      }
      false
    }

    /** count(*) of the plan this step ends, which must have no predicates
      * of its own: per input block, the summed lengths of its non-empty
      * lists times the product of every other group's size (factorized
      * aggregation, paper §6.2). The input group stays unflat, and no list
      * becomes a chunk state.
      */
    def countAll(): Long = {
      var total = 0L
      while (nextInput()) {
        var lens = 0L
        var i = 0
        while (i < inLen) {
          val s = starts(i)
          if (s >= 0) lens += ends(i) - s
          i += 1
        }
        if (lens > 0) total += lens * chunk.tupleCountExcept(inGi, gi)
      }
      total
    }
  }

  /** 1-1 / n-1 join over a vertex-column adjacency: appends blocks to the
    * input's own group (values need not be factored out), gathering the
    * single neighbour per position and dropping positions without one.
    * A flattened input writes its one neighbour at its current position, so
    * the neighbour slot keeps one reader.
    */
  private final class LColumnExtend(child: Op, step: ExtendStep, chunk: Chunk) extends Op {
    private val adj = step.adj.asInstanceOf[SingleAdjacency]
    private val gi = chunk.vGroup(step.fromSlot)
    private val g = chunk.groups(gi)
    chunk.vGroup(step.toSlot) = gi
    if (step.eSlot >= 0) chunk.eGroup(step.eSlot) = gi
    private val nbrReader = new ScratchReader
    private var gathered = new Array[Long](1024) // by index into the selection
    private var selBuf = new Array[Int](1024)
    chunk.vReader(step.toSlot) = nbrReader
    if (step.eSlot >= 0)
      chunk.eReader(step.eSlot) = step.props.singleHandles(step.forward, chunk.vReader(step.fromSlot), nbrReader)

    def open(): Unit = child.open()

    def next(): Boolean = {
      while (child.next()) {
        if (nbrReader.a.length < g.size) {
          nbrReader.a = new Array[Long](capacity(g.size))
          gathered = new Array[Long](nbrReader.a.length)
          selBuf = new Array[Int](nbrReader.a.length)
        }
        val nbrs = nbrReader.a
        if (g.curIdx >= 0) {
          val nbr = adj.nbr(chunk.vReader(step.fromSlot).get(g.curIdx).toInt)
          if (nbr != Values.Null) {
            nbrs(g.curIdx) = nbr
            if (filterGroup(step.preds, gi, g, selBuf, chunk)) return true
          }
        } else {
          val nPos = g.numPos
          chunk.vReader(step.fromSlot).gather(g.sel, nPos, gathered)
          adj.col.gather(gathered, nPos, gathered)
          var n = 0
          var i = 0
          while (i < nPos) {
            val nbr = gathered(i)
            if (nbr != Values.Null) {
              val p = g.posAt(i)
              nbrs(p) = nbr
              selBuf(n) = p
              n += 1
            }
            i += 1
          }
          g.sel = selBuf
          g.selLen = n
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
    * [[repro.spark.ParallelRunner]]. When the plan's last step is a
    * ListExtend without predicates, that step is the counting tail: it sums
    * the lengths of each input block's lists (`LListExtend.countAll`)
    * instead of emitting them. Every other plan (a last step with
    * predicates, a last ColumnExtend, a scan alone) adds the product of
    * group sizes per chunk state.
    */
  def countRange(store: GraphStore, plan: Plan, lo: Int, hi: Int, blockSize: Int = 1024): Long = {
    require(store.columnar, "LBP runs on columnar stores (GF-CL / GF-CV storage)")
    val chunk = new Chunk(plan.numVSlots, plan.numESlots, 1 + plan.extendSteps.count(!_.single))
    var op: Op = new LScan(plan.scan, store.vertexCounts(plan.scan.label), chunk, blockSize, lo, hi)
    plan.extendSteps.foreach { s =>
      op = if (s.single) new LColumnExtend(op, s, chunk) else new LListExtend(op, s, chunk)
    }
    op.open()
    op match {
      case tail: LListExtend if tail.step.preds.isEmpty => tail.countAll()
      case _ =>
        var total = 0L
        while (op.next()) total += chunk.tupleCount
        total
    }
  }

  def count(store: GraphStore, q: Query): Long = count(store, Compiler.compile(q, store))
}
