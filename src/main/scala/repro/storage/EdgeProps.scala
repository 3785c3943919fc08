package repro.storage

import repro.util.ByteWidthArray

/** A block of values: LBP's read-only view over CSR slices, scratch arrays,
  * scan ranges or edge handles. `gather` reads the values at a selection in
  * one loop inside the reader's own class, so the filter and extend loops
  * dispatch once per block (paper §6.2).
  */
trait LongReader {
  def get(i: Int): Long
  /** `out(i) = get(sel(i))` for i < n, or `get(i)` when `sel` is null. */
  def gather(sel: Array[Int], n: Int, out: Array[Long]): Unit
}

/** A reader re-pointed at each adjacency list (of vertex `own`, starting at
  * slot `off`). Readers are allocated once per operator and re-pointed per
  * list, so LBP does no per-list allocation on the hot path.
  */
abstract class SlotReader extends LongReader {
  var off: Int = 0
  def point(start: Int, own: Long): Unit = off = start
}

/** Points into an adjacency array — no copy (paper §6.2, ListExtend). */
final class SliceReader(a: ByteWidthArray) extends SlotReader {
  def get(i: Int): Long = a.get(off + i)
  def gather(sel: Array[Int], n: Int, out: Array[Long]): Unit = a.gather(off, sel, n, out)
}

/** The properties of one edge label: a [[PropertyStore]] in either format
  * (rows or columns) plus the label's edge-ID rule, which turns what an
  * adjacency list provides into an entity of that store — the ''handle''.
  * During a join the engine resolves the handle in constant time;
  * subsequent property reads use the handle only.
  */
sealed abstract class EdgeProps extends Serializable {

  /** The rows or columns the handles index. */
  def store: PropertyStore

  /** @param own the vertex being extended from
    * @param nbr the neighbour produced by the adjacency list
    * @param ev  the per-edge value stored in the adjacency list (page-level
    *            positional offset, global edge ID, or 0 when omitted)
    * @param forward whether the traversal used the forward adjacency index
    */
  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long

  /** The block form of `handle` over the lists of `adj`: a reader of the
    * handles of the list it is pointed at, given the reader `nbrs` of that
    * list's neighbours. Threads share one store, so the store keeps no
    * reader state: each call returns new readers with their own scratch.
    */
  def listHandles(adj: CsrAdjacency, forward: Boolean, nbrs: SlotReader): SlotReader =
    throw new IllegalStateException(s"LBP reads no edge properties from $this")

  /** The block form of `handle` for a single-cardinality step, given the
    * readers of the step's owners (`own`) and neighbours (`nbr`).
    */
  def singleHandles(forward: Boolean, own: LongReader, nbr: LongReader): LongReader =
    throw new IllegalStateException(s"LBP reads no edge properties from $this")

  final def getLong(handle: Long, p: Int): Long = store.getLong(handle.toInt, p)
  final def getString(handle: Long, p: Int): String = store.getString(handle.toInt, p)
  def bytes: Long = store.bytes
}

/** Single-indexed edge property pages (paper §4.2, Fig. 5): the properties
  * of the forward adjacency lists of k consecutive source vertices are laid
  * out contiguously in one page. The edge ID scheme (edge label, src vertex,
  * page-level positional offset) makes
  * `slot = pageBases[src / k] + pagePos` a constant-time 2-read lookup in
  * the backward direction and a sequential scan in the forward direction.
  */
final class PropertyPages(
    val k: Int,
    bases: ByteWidthArray, // numPages + 1
    val store: PropertyStore
) extends EdgeProps {
  // src / k as a shift when k is a power of two (the default 128 is) —
  // a hardware divide per property read would dominate the lookup.
  private val kShift: Int = if (Integer.bitCount(k) == 1) Integer.numberOfTrailingZeros(k) else -1

  @inline private def pageOf(src: Long): Int =
    if (kShift >= 0) (src >> kShift).toInt else (src / k).toInt

  @inline def slot(src: Long, pagePos: Long): Long = bases.get(pageOf(src)) + pagePos

  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long =
    if (forward) slot(own, ev) else slot(nbr, ev)

  override def listHandles(adj: CsrAdjacency, forward: Boolean, nbrs: SlotReader): SlotReader =
    if (forward) new FwdPageHandleReader(this, adj.edgeVals)
    else new BwdPageHandleReader(this, adj.edgeVals, adj.nbrs)

  override def bytes: Long = bases.bytes + super.bytes

  /** Base slot of the page containing src vertex `src` (used by vectorized
    * readers to turn a whole adjacency list's page offsets into slots with
    * one base lookup).
    */
  @inline def pageBase(src: Long): Long = bases.get(pageOf(src))

  /** `out(i) = pageBase(srcs(i))` for i < n, in one loop; `out` may be `srcs`. */
  def pageBases(srcs: Array[Long], n: Int, out: Array[Long]): Unit = {
    var i = 0
    if (kShift >= 0) while (i < n) { out(i) = srcs(i) >> kShift; i += 1 }
    else while (i < n) { out(i) = srcs(i) / k; i += 1 }
    bases.gatherAt(out, n, out)
  }
}

/** Forward property-page handles: the page base is fixed for the whole
  * adjacency list, so handles are base + page-level offsets.
  */
private final class FwdPageHandleReader(pages: PropertyPages, ev: ByteWidthArray) extends SlotReader {
  private var base: Long = 0L
  override def point(start: Int, own: Long): Unit = { off = start; base = pages.pageBase(own) }
  def get(i: Int): Long = base + ev.get(off + i)
  def gather(sel: Array[Int], n: Int, out: Array[Long]): Unit = {
    ev.gather(off, sel, n, out)
    var i = 0
    while (i < n) { out(i) += base; i += 1 }
  }
}

/** Backward property-page handles: pageBase(neighbour) + page offset. */
private final class BwdPageHandleReader(pages: PropertyPages,
                                        ev: ByteWidthArray, nbrs: ByteWidthArray) extends SlotReader {
  private var offsets = new Array[Long](1024)
  def get(i: Int): Long = pages.pageBase(nbrs.get(off + i)) + ev.get(off + i)
  def gather(sel: Array[Int], n: Int, out: Array[Long]): Unit = {
    nbrs.gather(off, sel, n, out)
    pages.pageBases(out, n, out)
    if (offsets.length < n) offsets = new Array[Long](math.max(n, 2 * offsets.length))
    ev.gather(off, sel, n, offsets)
    var i = 0
    while (i < n) { out(i) += offsets(i); i += 1 }
  }
}

/** Edge properties indexed by a global edge ID (the paper's pre-NEW-IDS
  * design, §4.2): the handle is the ID the list stores, i.e. the edge's
  * insertion position, or a random permutation of it for Table 3's COL_E,
  * so neither direction reads sequentially. GF-RV keeps rows behind it,
  * +COLS and COL_E keep edge columns.
  */
final class GlobalIdEdgeProps(val store: PropertyStore) extends EdgeProps {
  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long = ev
  override def listHandles(adj: CsrAdjacency, forward: Boolean, nbrs: SlotReader): SlotReader =
    new SliceReader(adj.edgeVals)
}

/** Edge properties of single-cardinality labels stored as vertex columns of
  * the owning endpoint (paper §4.1.2, Table 1): src when n-1, dst when 1-n.
  * The handle is the owner's positional offset — no indirection at all.
  */
final class VColOwnerEdgeProps(val ownerIsSrc: Boolean, val store: PropertyStore) extends EdgeProps {
  /** Whether a traversal in this direction extends from the owner. */
  @inline private def fromOwner(forward: Boolean): Boolean = ownerIsSrc == forward

  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long =
    if (fromOwner(forward)) own else nbr

  /** Lists run away from the single-cardinality owner: the handle is the neighbour. */
  override def listHandles(adj: CsrAdjacency, forward: Boolean, nbrs: SlotReader): SlotReader = {
    require(!fromOwner(forward), "owner-column properties behind an owner-side CSR")
    nbrs
  }

  override def singleHandles(forward: Boolean, own: LongReader, nbr: LongReader): LongReader =
    if (fromOwner(forward)) own else nbr
}

/** No properties on this label: every read is refused. */
object NoEdgeProps extends EdgeProps {
  def store: PropertyStore = throw new IllegalStateException("label has no edge properties")
  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long = 0L
  override def bytes: Long = 0L
}

object PropertyPages {
  /** Build page bases from per-source-vertex list lengths. */
  def buildBases(listLens: Array[Int], k: Int, suppress: Boolean): ByteWidthArray = {
    val nPages = (listLens.length + k - 1) / k
    val bases = new Array[Long](nPages + 1)
    var acc = 0L
    var p = 0
    while (p < nPages) {
      bases(p) = acc
      var v = p * k
      val hi = math.min(listLens.length, (p + 1) * k)
      while (v < hi) { acc += listLens(v); v += 1 }
      p += 1
    }
    bases(nPages) = acc
    ByteWidthArray(bases, suppress)
  }
}
