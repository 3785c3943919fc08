package repro.util

/** A fixed-length array of non-negative longs stored with leading-0
  * suppression (paper §5.1): every element is encoded with the same fixed
  * byte width in {1, 2, 4, 8}, the smallest that fits the maximum value.
  *
  * Fixed-width codes keep element access constant-time (Desideratum 2):
  * `get` is a single primitive-array read plus a widening conversion, no
  * block decompression.
  */
sealed trait ByteWidthArray extends Serializable {
  def length: Int

  /** Value at position `i` (always widened back to Long). */
  def get(i: Int): Long

  /** Encoded width in bytes per element (1, 2, 4 or 8). */
  def width: Int

  /** Heap bytes of the backing primitive array (excludes object headers,
    * consistently for every structure we measure).
    */
  def bytes: Long = width.toLong * length
}

object ByteWidthArray {

  private final class W1(a: Array[Byte]) extends ByteWidthArray {
    def length: Int = a.length
    def get(i: Int): Long = java.lang.Byte.toUnsignedLong(a(i))
    def width: Int = 1
  }
  private final class W2(a: Array[Short]) extends ByteWidthArray {
    def length: Int = a.length
    def get(i: Int): Long = java.lang.Short.toUnsignedLong(a(i))
    def width: Int = 2
  }
  private final class W4(a: Array[Int]) extends ByteWidthArray {
    def length: Int = a.length
    def get(i: Int): Long = java.lang.Integer.toUnsignedLong(a(i))
    def width: Int = 4
  }
  private final class W8(a: Array[Long]) extends ByteWidthArray {
    def length: Int = a.length
    def get(i: Int): Long = a(i)
    def width: Int = 8
  }

  /** Smallest width (bytes) able to represent `maxValue` unsigned. */
  def widthFor(maxValue: Long): Int =
    if (maxValue < (1L << 8)) 1
    else if (maxValue < (1L << 16)) 2
    else if (maxValue < (1L << 32)) 4
    else 8

  /** The leading-0 suppression policy (+0-SUPR): the minimal width for
    * `maxValue` when `suppress`, otherwise the uncompressed 8 bytes.
    */
  def widthFor(maxValue: Long, suppress: Boolean): Int =
    if (suppress) widthFor(maxValue) else 8

  /** Encode `values` (all must be >= 0) at the minimal uniform width. */
  def apply(values: Array[Long]): ByteWidthArray = {
    var max = 0L
    var i = 0
    while (i < values.length) {
      val v = values(i)
      require(v >= 0, s"ByteWidthArray stores non-negative values, got $v")
      if (v > max) max = v
      i = i + 1
    }
    at(values, widthFor(max))
  }

  /** Encode `values` under the leading-0 policy: minimal width when
    * `suppress`, otherwise 8 bytes.
    */
  def apply(values: Array[Long], suppress: Boolean): ByteWidthArray =
    if (suppress) apply(values) else at(values, 8)

  /** Encode at an explicit width; used to model uncompressed (8-byte)
    * baselines such as GF-RV's 8-byte IDs.
    */
  def at(values: Array[Long], width: Int): ByteWidthArray = {
    // Typed copy loops: ArrayOps.map stores each element through its boxed path.
    val n = values.length
    var i = 0
    width match {
      case 1 => val a = new Array[Byte](n); while (i < n) { a(i) = values(i).toByte; i += 1 }; new W1(a)
      case 2 => val a = new Array[Short](n); while (i < n) { a(i) = values(i).toShort; i += 1 }; new W2(a)
      case 4 => val a = new Array[Int](n); while (i < n) { a(i) = values(i).toInt; i += 1 }; new W4(a)
      case 8 => new W8(values.clone())
      case w => throw new IllegalArgumentException(s"unsupported width $w")
    }
  }

  val empty: ByteWidthArray = new W1(Array.emptyByteArray)
}
