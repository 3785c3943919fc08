package repro.compress

/** Simplified Jacobson bit-vector rank index (paper §5.3, Fig. 7).
  *
  * Over a bit string of `n` positions it answers, in constant time,
  *  - `isSet(p)`: is position p non-NULL, and
  *  - `rank(p)`: the number of set bits strictly before p,
  * using (i) prefix sums stored every `c` positions with `m` bits each and
  * (ii) a static bit-string-position-count map `M` with 2^c * c cells where
  * `M(b, i)` is the number of 1s before the i-th bit of the c-length bit
  * string b.
  *
  * The bit string is packed 64 positions per Long. `c` is a power of two
  * <= 16, so a c-bit chunk never crosses a word and is read by shift and
  * mask; `p / c` and `p % c` are shifts.
  *
  * Defaults c = m = 16: a 1 MB static map shared by all instances, blocks of
  * 2^m = 64K elements per prefix-sum block, and m/c = 1 extra bit per
  * element on top of the 1-bit bit string.
  */
final class JacobsonIndex private (
    val c: Int,
    val m: Int,
    n: Int,
    bits: Array[Long],       // the bit string, 64 positions per word
    prefixSums: Array[Long], // packed m-bit per-chunk prefix sums (block-relative)
    blockBases: Array[Long], // rank at the start of each 2^m-element block
    map: JacobsonIndex.PopcountMap
) extends Serializable {

  private val logC = Integer.numberOfTrailingZeros(c)
  private val chunkMask = (1 << c) - 1

  val length: Int = n

  def isSet(p: Int): Boolean = ((bits(p >>> 6) >>> (p & 63)) & 1L) != 0

  /** Number of set bits strictly before position p. Constant time. */
  def rank(p: Int): Long = {
    // p & (64 - c) is the first bit of p's chunk within its word.
    val chunk = (bits(p >>> 6) >>> (p & (64 - c))).toInt & chunkMask
    blockBases((p.toLong >>> m).toInt) + readPrefixSum(p >>> logC) + map.onesBefore(chunk, p & (c - 1))
  }

  private def readPrefixSum(chunkIdx: Int): Long = {
    // m-bit values packed little-endian into a long array.
    val bitPos = chunkIdx.toLong * m
    val word = (bitPos >>> 6).toInt
    val off = (bitPos & 63).toInt
    val lo = prefixSums(word) >>> off
    val v =
      if (off + m <= 64) lo
      else lo | (prefixSums(word + 1) << (64 - off))
    v & ((1L << m) - 1)
  }

  /** Allocated bytes of the bit string, prefix sums and block bases. The
    * static popcount map is excluded: one map per `c` is shared by every
    * index in the process, so charging it to each column would count it
    * many times.
    */
  def bytes: Long = 8L * (bits.length + prefixSums.length + blockBases.length)
}

object JacobsonIndex {

  /** Static popcount map M: for each c-length bit string b and position i,
    * the number of 1s before bit i. Size 2^c * c cells of ceil(log2(c)/8)
    * bytes (1 byte for c <= 16). Shared (cached) per c.
    */
  final class PopcountMap private[JacobsonIndex] (val c: Int) extends Serializable {
    private val table: Array[Byte] = {
      val t = new Array[Byte]((1 << c) * c)
      var b = 0
      while (b < (1 << c)) {
        var ones = 0
        var i = 0
        while (i < c) {
          t(b * c + i) = ones.toByte
          if (((b >>> i) & 1) == 1) ones += 1
          i += 1
        }
        b += 1
      }
      t
    }
    def onesBefore(bits: Int, i: Int): Int = table(bits * c + i)
    def bytes: Long = (1L << c) * c
  }

  private val mapCache = new java.util.concurrent.ConcurrentHashMap[Int, PopcountMap]()
  def popcountMap(c: Int): PopcountMap =
    mapCache.computeIfAbsent(c, cc => new PopcountMap(cc))

  /** Build the index over `present`: present(p) == true means position p is
    * non-NULL. `c` must be <= 16 (the map grows as 2^c * c); `m` in 8..32.
    */
  def apply(present: Array[Boolean], c: Int = 16, m: Int = 16): JacobsonIndex = {
    val bits = new Array[Long]((present.length + 63) >>> 6)
    var p = 0
    while (p < present.length) { if (present(p)) bits(p >>> 6) |= 1L << (p & 63); p += 1 }
    fromBits(bits, present.length, c, m)
  }

  /** Build the index over the first `n` bits of `bits` (bit p of word p/64
    * set when position p is non-NULL). The index keeps `bits` as its bit
    * string.
    */
  def fromBits(bits: Array[Long], n: Int, c: Int, m: Int): JacobsonIndex = {
    require(c >= 1 && c <= 16, s"c=$c out of range (map would be 2^c*c bytes)")
    require(m >= 1 && m <= 32, s"m=$m out of range")
    // c divides 2^m iff c is a power of two <= 2^m; rank's shifts need the former.
    require(Integer.bitCount(c) == 1 && c <= (1L << m), s"chunk size c=$c must divide block size 2^$m")
    require(bits.length == (n + 63) >>> 6, s"${bits.length} words for $n bits")
    val logC = Integer.numberOfTrailingZeros(c)
    val nChunks = (n + c - 1) >>> logC
    val prefixSums = new Array[Long](((nChunks.toLong * m + 63) >>> 6).toInt)
    val blockSize = 1L << m
    val blockBases = new Array[Long](((n + blockSize - 1) >>> m).toInt)

    var rankTotal = 0L
    var blockRank = 0L
    var chunkIdx = 0
    while (chunkIdx < nChunks) {
      val chunkStart = chunkIdx.toLong << logC
      if ((chunkStart & (blockSize - 1)) == 0) {
        blockBases((chunkStart >>> m).toInt) = rankTotal
        blockRank = 0L
      }
      writePrefixSum(prefixSums, chunkIdx, m, blockRank)
      val ones = java.lang.Long.bitCount((bits((chunkStart >>> 6).toInt) >>> (chunkStart & 63)) & ((1L << c) - 1))
      rankTotal += ones
      blockRank += ones
      chunkIdx += 1
    }
    new JacobsonIndex(c, m, n, bits, prefixSums, blockBases, popcountMap(c))
  }

  private def writePrefixSum(ps: Array[Long], chunkIdx: Int, m: Int, value: Long): Unit = {
    val masked = value & ((1L << m) - 1)
    val bitPos = chunkIdx.toLong * m
    val word = (bitPos >>> 6).toInt
    val off = (bitPos & 63).toInt
    ps(word) |= masked << off
    if (off + m > 64) ps(word + 1) |= masked >>> (64 - off)
  }
}
