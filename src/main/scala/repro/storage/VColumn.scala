package repro.storage

import repro.compress.{Dictionary, NullCompressedColumn}
import repro.core.{StorageConfig, Values}
import repro.util.ByteWidthArray

/** A vertex column (paper §4.1.2): one fixed-width value per positional
  * offset. Also used slot-indexed inside property pages and edge columns.
  * Values are Longs (numerics directly, strings as dictionary codes).
  */
sealed trait VColumn extends Serializable {
  def length: Int

  /** Value at offset `v`, or [[Values.Null]]. Constant time. */
  def get(v: Int): Long
  def bytes: Long
}

/** Dense column; NULLs (if any) are a reserved sentinel code inside the
  * fixed-width domain, so presence costs nothing extra.
  */
final class PlainVColumn(values: ByteWidthArray, sentinel: Long) extends VColumn {
  def length: Int = values.length
  def get(v: Int): Long = {
    val x = values.get(v)
    if (x == sentinel) Values.Null else x
  }
  def bytes: Long = values.bytes
}

/** NULL-compressed column: packed non-NULL values + Jacobson rank index. */
final class CompressedVColumn(col: NullCompressedColumn) extends VColumn {
  def length: Int = col.length
  def get(v: Int): Long = col.get(v)
  def bytes: Long = col.bytes
}

object VColumn {

  /** Build a column from dense values (Null sentinel marks missing).
    *
    * @param suppress      apply leading-0 suppression (+0-SUPR)
    * @param nullCompress  apply Jacobson NULL compression when the NULL
    *                      fraction exceeds [[StorageConfig.NullFraction]]
    * @param fixedWidth    width of a fixed-length code domain (dictionary
    *                      codes), used whether or not `suppress` is set
    */
  def apply(dense: Array[Long], suppress: Boolean, nullCompress: Boolean,
            fixedWidth: Int = -1): VColumn = {
    var nulls = 0
    var max = 0L
    var i = 0
    while (i < dense.length) {
      val x = dense(i)
      if (x == Values.Null) nulls += 1
      else {
        require(x >= 0, s"column values must be non-negative, got $x")
        if (x > max) max = x
      }
      i += 1
    }
    if (nullCompress && StorageConfig.aboveNullFraction(nulls, dense.length)) {
      new CompressedVColumn(NullCompressedColumn(dense, StorageConfig.RankC, StorageConfig.RankM, suppress))
    } else {
      // Sentinel = max+1 keeps NULLs representable inside the fixed width.
      val sentinel = if (nulls > 0) max + 1 else -1L
      val enc = if (nulls > 0) dense.clone() else dense
      if (nulls > 0) { i = 0; while (i < enc.length) { if (enc(i) == Values.Null) enc(i) = sentinel; i += 1 } }
      val maxCode = math.max(max, sentinel)
      val width =
        if (fixedWidth > 0) math.max(fixedWidth, ByteWidthArray.widthFor(maxCode))
        else ByteWidthArray.widthFor(maxCode, suppress)
      new PlainVColumn(ByteWidthArray.at(enc, width), sentinel)
    }
  }
}

/** A set of typed columns + dictionaries for one entity domain (the
  * vertices of a label, the slots of a property-page store, or the IDs of
  * an edge-column store).
  */
final class ColumnSet(
    cols: Array[VColumn],
    dicts: Array[Dictionary] // null entry for numeric props
) extends PropertyStore {
  def getLong(entity: Int, p: Int): Long = cols(p).get(entity)
  def getString(entity: Int, p: Int): String = {
    val code = cols(p).get(entity)
    if (code == Values.Null) null else dicts(p).decode(code.toInt)
  }
  def reader(p: Int): Long => Long = {
    val col = cols(p)
    h => col.get(h.toInt)
  }
  def dict(p: Int): Dictionary = dicts(p)
  def bytes: Long = cols.map(_.bytes).sum + dicts.iterator.filter(_ != null).map(_.bytes).sum
}
