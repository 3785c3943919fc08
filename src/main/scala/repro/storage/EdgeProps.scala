package repro.storage

import repro.compress.Dictionary
import repro.util.ByteWidthArray

/** Access to the properties of one edge label, independent of how they are
  * stored. During a join the engine resolves a constant-time ''handle'' from
  * what the adjacency list provides; subsequent property reads use the
  * handle only.
  *
  * @param own the vertex being extended from
  * @param nbr the neighbour produced by the adjacency list
  * @param ev  the per-edge value stored in the adjacency list (page-level
  *            positional offset, global edge ID, or 0 when omitted)
  * @param forward whether the traversal used the forward adjacency index
  */
trait EdgePropAccessor extends Serializable {
  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long
  def getLong(handle: Long, propIdx: Int): Long

  /** Handle-to-value accessor with the property column bound once — the
    * per-element path vectorized filters use (stores override to skip
    * dispatch layers).
    */
  def longReader(propIdx: Int): Long => Long = h => getLong(h, propIdx)
  def getString(handle: Long, propIdx: Int): String
  def dict(propIdx: Int): Dictionary
  def bytes: Long
}

/** An edge-property store whose values live in one [[ColumnSet]] indexed
  * by the handle. Each store states only its handle rule.
  */
sealed abstract class ColumnEdgeProps(columns: ColumnSet) extends EdgePropAccessor {
  final def getLong(handle: Long, propIdx: Int): Long = columns.get(handle.toInt, propIdx)
  final def getString(handle: Long, propIdx: Int): String = columns.getString(handle.toInt, propIdx)
  final override def longReader(propIdx: Int): Long => Long = {
    val col = columns.cols(propIdx)
    h => col.get(h.toInt)
  }
  final def dict(propIdx: Int): Dictionary = columns.dicts(propIdx)
  def bytes: Long = columns.bytes
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
    pageBases: ByteWidthArray, // numPages + 1
    columns: ColumnSet
) extends ColumnEdgeProps(columns) {
  // src / k as a shift when k is a power of two (the default 128 is) —
  // a hardware divide per property read would dominate the lookup.
  private val kShift: Int = if (Integer.bitCount(k) == 1) Integer.numberOfTrailingZeros(k) else -1

  @inline private def pageOf(src: Long): Int =
    if (kShift >= 0) (src >> kShift).toInt else (src / k).toInt

  @inline def slot(src: Long, pagePos: Long): Long = pageBases.get(pageOf(src)) + pagePos

  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long =
    if (forward) slot(own, ev) else slot(nbr, ev)

  override def bytes: Long = pageBases.bytes + super.bytes

  /** Base slot of the page containing src vertex `src` (used by vectorized
    * readers to turn a whole adjacency list's page offsets into slots with
    * one base lookup).
    */
  @inline def pageBase(src: Long): Long = pageBases.get(pageOf(src))
}

/** Edge columns indexed by a global edge ID (the paper's pre-NEW-IDS
  * design, §4.2): the ID is the edge's insertion position, or a random
  * permutation of it for Table 3's COL_E, so neither direction reads
  * sequentially.
  */
final class EdgeColumnStore(columns: ColumnSet) extends ColumnEdgeProps(columns) {
  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long = ev
}

/** Edge properties of single-cardinality labels stored as vertex columns of
  * the owning endpoint (paper §4.1.2, Table 1): src when n-1, dst when 1-n.
  * The handle is the owner's positional offset — no indirection at all.
  */
final class VColOwnerEdgeProps(val ownerIsSrc: Boolean, columns: ColumnSet) extends ColumnEdgeProps(columns) {
  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long =
    if (ownerIsSrc == forward) own else nbr
}

/** No properties on this label. */
object NoEdgeProps extends EdgePropAccessor {
  def handle(own: Long, nbr: Long, ev: Long, forward: Boolean): Long = 0L
  def getLong(handle: Long, propIdx: Int): Long =
    throw new IllegalStateException("label has no edge properties")
  def getString(handle: Long, propIdx: Int): String =
    throw new IllegalStateException("label has no edge properties")
  def dict(propIdx: Int): Dictionary = null
  def bytes: Long = 0L
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
