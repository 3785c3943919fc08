package repro.storage

import repro.compress.Dictionary

/** The properties of one entity domain (the vertices of a label, or the
  * handles of an edge-property store) in either of Table 2's formats:
  * interpreted rows ([[RowStore]], GF-RV) or columns ([[ColumnSet]], +COLS
  * on). Entities are positional offsets; NULL reads as
  * [[repro.core.Values.Null]] or a null string.
  */
trait PropertyStore extends Serializable {
  /** Numeric value or dictionary code; rows keep strings raw (`getString`). */
  def getLong(entity: Int, p: Int): Long
  def getString(entity: Int, p: Int): String
  /** `out(i) = getLong(handles(i), p)` for i < n: the block read of LBP's
    * filters (`out` may be `handles`). Columns override it with one loop
    * per column class.
    */
  def gatherLong(p: Int, handles: Array[Long], n: Int, out: Array[Long]): Unit = {
    var i = 0
    while (i < n) { out(i) = getLong(handles(i).toInt, p); i += 1 }
  }
  /** Dictionary of string property `p`; null for numerics and for rows. */
  def dict(p: Int): Dictionary
  def bytes: Long
}
