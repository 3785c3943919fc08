package repro.storage

import repro.compress.{JacobsonIndex, NullSplit}
import repro.core.{StorageConfig, Values}
import repro.util.ByteWidthArray

/** Offset level of a 2-level CSR (paper Fig. 3), optionally NULL-compressed:
  * the paper treats empty adjacency lists as NULLs and stores list starts
  * only for non-empty vertices behind a Jacobson rank index (§5.3).
  */
sealed trait CsrOffsets extends Serializable {
  def numVertices: Int
  /** Start slot of v's list, or -1 when it is empty. */
  def start(v: Int): Int
  /** End slot of v's list; defined when it is not empty. */
  def end(v: Int): Int
  /** The lists of vertices `vs(0 until n)` in one call: `starts(i)` is -1
    * for an empty list, otherwise its start slot, and `ends(i)` its end.
    */
  def ranges(vs: Array[Long], n: Int, starts: Array[Int], ends: Array[Int]): Unit
  def bytes: Long
}

final class PlainOffsets(off: ByteWidthArray) extends CsrOffsets {
  def numVertices: Int = off.length - 1
  def start(v: Int): Int = {
    val s = off.get(v)
    if (s == off.get(v + 1)) -1 else s.toInt
  }
  def end(v: Int): Int = off.get(v + 1).toInt
  /** Two offset reads per list. */
  def ranges(vs: Array[Long], n: Int, starts: Array[Int], ends: Array[Int]): Unit = {
    var i = 0
    while (i < n) { starts(i) = vs(i).toInt; i += 1 }
    off.ranges(starts, n, starts, ends)
  }
  def bytes: Long = off.bytes
}

/** `idx` covers positions 0..n: the list starts, NULL for an empty list,
  * then the total, which is never NULL, so `end(v)` of a non-empty list is
  * always the next packed entry.
  */
final class CompressedOffsets(idx: JacobsonIndex, packed: ByteWidthArray) extends CsrOffsets {
  def numVertices: Int = idx.length - 1
  def start(v: Int): Int = if (idx.isSet(v)) packed.get(idx.rank(v).toInt).toInt else -1
  def end(v: Int): Int = packed.get(idx.rank(v).toInt + 1).toInt
  /** One rank per non-empty list, then two reads of the packed starts. */
  def ranges(vs: Array[Long], n: Int, starts: Array[Int], ends: Array[Int]): Unit = {
    var i = 0
    while (i < n) {
      val v = vs(i).toInt
      starts(i) = if (idx.isSet(v)) idx.rank(v).toInt else -1
      i += 1
    }
    packed.ranges(starts, n, starts, ends)
  }
  def bytes: Long = idx.bytes + packed.bytes
}

/** Engine-facing adjacency index for one (edge label, direction). */
sealed trait Adjacency extends Serializable {
  def bytes: Long
}

/** 2-level CSR: offsets + neighbour offsets (+ optional per-edge values:
  * global edge IDs under the old ID scheme, page-level positional offsets
  * under the new one, or omitted entirely when the decision tree of Fig. 6
  * allows).
  */
final class CsrAdjacency(
    val offsets: CsrOffsets,
    val nbrs: ByteWidthArray,
    val edgeVals: ByteWidthArray // null when omitted
) extends Adjacency {
  def numVertices: Int = offsets.numVertices
  @inline def start(v: Int): Int = offsets.start(v)
  @inline def end(v: Int): Int = offsets.end(v)
  @inline def nbr(i: Int): Long = nbrs.get(i)
  @inline def edgeVal(i: Int): Long = if (edgeVals == null) 0L else edgeVals.get(i)
  def hasEdgeVals: Boolean = edgeVals != null
  def bytes: Long = offsets.bytes + nbrs.bytes + (if (edgeVals == null) 0L else edgeVals.bytes)
}

/** Single-cardinality adjacency stored as a vertex column (paper §4.1.2):
  * `nbr(v)` is the single neighbour of v, or [[repro.core.Values.Null]].
  */
final class SingleAdjacency(val col: VColumn) extends Adjacency {
  def numVertices: Int = col.length
  @inline def nbr(v: Int): Long = col.get(v)
  def bytes: Long = col.bytes
}

object CsrAdjacency {

  /** Build CSR offsets from per-vertex list lengths.
    *
    * @param nullCompress compress offsets when the empty-list fraction
    *                     exceeds `threshold`
    * @param suppress     leading-0 suppression of the offset values
    */
  def buildOffsets(listLens: Array[Int], suppress: Boolean, nullCompress: Boolean,
                   threshold: Double, c: Int, m: Int): CsrOffsets = {
    val n = listLens.length
    val off = new Array[Long](n + 1)
    var empties = 0
    var acc = 0L
    var i = 0
    while (i < n) {
      if (listLens(i) == 0) empties += 1
      off(i) = acc
      acc += listLens(i)
      i += 1
    }
    off(n) = acc
    if (nullCompress && StorageConfig.aboveNullFraction(empties, n, threshold)) {
      // An empty list is a NULL start; the total stays as entry n, never NULL.
      i = 0
      while (i < n) { if (listLens(i) == 0) off(i) = Values.Null; i += 1 }
      val split = NullSplit(off)
      new CompressedOffsets(JacobsonIndex.fromBits(split.bits, split.n, c, m),
        ByteWidthArray(split.values, suppress))
    } else new PlainOffsets(ByteWidthArray(off, suppress))
  }
}
