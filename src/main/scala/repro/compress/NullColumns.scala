package repro.compress

import repro.util.ByteWidthArray

/** A dense column split per §5.3 (Abadi's bit string): bit p of `bits`
  * (64 positions per word) is set when position p is non-NULL, and
  * `values` holds the non-NULL values in position order. The one builder
  * behind [[NullCompressedColumn]], [[VanillaNullColumn]] and the
  * NULL-compressed CSR offsets.
  */
final class NullSplit private (val n: Int, val bits: Array[Long], val values: Array[Long])

object NullSplit {
  /** Split `dense`, where [[NullCompressedColumn.Null]] marks missing entries. */
  def apply(dense: Array[Long]): NullSplit = {
    val n = dense.length
    val bits = new Array[Long]((n + 63) >>> 6)
    var count = 0
    var i = 0
    while (i < n) {
      if (dense(i) != NullCompressedColumn.Null) { bits(i >>> 6) |= 1L << (i & 63); count += 1 }
      i += 1
    }
    val values = new Array[Long](count)
    var j = 0
    i = 0
    while (j < count) {
      if (dense(i) != NullCompressedColumn.Null) { values(j) = dense(i); j += 1 }
      i += 1
    }
    new NullSplit(n, bits, values)
  }
}

/** NULL-compressed long column (paper §5.3): non-NULL values packed
  * consecutively + a Jacobson rank index over the presence bit string.
  * `get(p)` is constant time: one bit probe + one rank + one value read.
  */
final class NullCompressedColumn private (index: JacobsonIndex, values: ByteWidthArray) extends Serializable {

  def length: Int = index.length

  def isNull(p: Int): Boolean = !index.isSet(p)

  /** Value at p, or [[NullCompressedColumn.Null]] when p is NULL. */
  def get(p: Int): Long =
    if (index.isSet(p)) values.get(index.rank(p).toInt) else NullCompressedColumn.Null

  /** `out(i) = get(idx(i))` for i < n; `out` may be `idx`. */
  def gather(idx: Array[Long], n: Int, out: Array[Long]): Unit = {
    var i = 0
    while (i < n) {
      val p = idx(i).toInt
      out(i) = if (index.isSet(p)) values.get(index.rank(p).toInt) else NullCompressedColumn.Null
      i += 1
    }
  }

  def bytes: Long = index.bytes + values.bytes
  def indexBytes: Long = index.bytes
}

object NullCompressedColumn {
  final val Null: Long = Long.MinValue

  /** Build from a dense column where `Null` marks missing entries.
    * `suppress` controls whether values get leading-0 suppression (the
    * +0-SUPR step) or stay at 8 bytes.
    */
  def apply(dense: Array[Long], c: Int = 16, m: Int = 16, suppress: Boolean = true): NullCompressedColumn = {
    val split = NullSplit(dense)
    new NullCompressedColumn(JacobsonIndex.fromBits(split.bits, split.n, c, m),
      ByteWidthArray(split.values, suppress))
  }
}

/** Abadi's vanilla bit-string scheme (paper §5.3 baseline): presence bits +
  * packed values, but NO rank index — `get(p)` must popcount-scan the bit
  * words from the start of the column. Linear time; this is the design the
  * paper shows is >20x slower and replaces with the Jacobson index.
  */
final class VanillaNullColumn private (bits: Array[Long], n: Int, values: ByteWidthArray) extends Serializable {

  def length: Int = n

  def isNull(p: Int): Boolean = ((bits(p >>> 6) >>> (p & 63)) & 1L) == 0

  def get(p: Int): Long = {
    if (isNull(p)) return NullCompressedColumn.Null
    var rank = 0
    val word = p >>> 6
    var w = 0
    while (w < word) { rank += java.lang.Long.bitCount(bits(w)); w += 1 }
    rank += java.lang.Long.bitCount(bits(word) & ((1L << (p & 63)) - 1))
    values.get(rank)
  }

  def bytes: Long = bits.length.toLong * 8 + values.bytes
}

object VanillaNullColumn {
  def apply(dense: Array[Long]): VanillaNullColumn = {
    val split = NullSplit(dense)
    new VanillaNullColumn(split.bits, split.n, ByteWidthArray(split.values))
  }
}
