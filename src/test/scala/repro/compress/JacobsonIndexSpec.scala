package repro.compress

import java.lang.reflect.{Array => JArray, Modifier}

import repro.SparkSpec
import repro.util.ByteWidthArray

class JacobsonIndexSpec extends SparkSpec {

  private def reference(present: Array[Boolean]): Array[Long] = {
    val r = new Array[Long](present.length)
    var acc = 0L
    var i = 0
    while (i < present.length) { r(i) = acc; if (present(i)) acc += 1; i += 1 }
    r
  }

  private def randomPresent(n: Int, density: Double, seed: Int): Array[Boolean] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(rnd.nextDouble() < density)
  }

  for {
    density <- Seq(0.0, 0.01, 0.1, 0.5, 0.9, 1.0)
    // spans chunk, 64-bit word and 64K-block boundaries
    n <- Seq(0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 70000)
  } test(f"rank matches reference at density=$density n=$n (c=16,m=16)") {
    val present = randomPresent(n, density, seed = n + (density * 100).toInt)
    val idx = JacobsonIndex(present)
    val ref = reference(present)
    var p = 0
    while (p < n) {
      assert(idx.isSet(p) == present(p), s"isSet at $p")
      assert(idx.rank(p) == ref(p), s"rank at $p")
      p += 1
    }
  }

  for {
    c <- Seq(4, 8, 16)
    m <- Seq(8, 16, 24, 32)
  } test(s"rank matches reference for (c=$c, m=$m)") {
    // n > 2^m for m=8 exercises multiple prefix-sum blocks.
    val n = if (m == 8) 3000 else 100000
    val present = randomPresent(n, 0.4, seed = c * 100 + m)
    val idx = JacobsonIndex(present, c, m)
    val ref = reference(present)
    var p = 0
    while (p < n) {
      assert(idx.rank(p) == ref(p), s"rank at $p (c=$c,m=$m)")
      assert(idx.isSet(p) == present(p))
      p += 1
    }
  }

  test("rejects invalid parameters") {
    intercept[IllegalArgumentException](JacobsonIndex(Array(true), c = 17))
    intercept[IllegalArgumentException](JacobsonIndex(Array(true), c = 0))
    intercept[IllegalArgumentException](JacobsonIndex(Array(true), m = 0))
    intercept[IllegalArgumentException](JacobsonIndex(Array(true), c = 12, m = 16)) // 12 does not divide 2^16
  }

  test("overhead is ~2 bits per element at c=m=16 (paper §5.3)") {
    val n = 1 << 20
    val idx = JacobsonIndex(randomPresent(n, 0.5, 99))
    val bitsPerElem = idx.bytes * 8.0 / n
    // 1 bit (bit string) + 1 bit (m/c prefix sums) + small block-base cost.
    assert(bitsPerElem >= 2.0 && bitsPerElem < 2.2, s"bits/elem = $bitsPerElem")
  }

  /** Allocated bytes of the primitive arrays `obj` holds, following fields
    * into the index and value arrays it owns. The popcount map is shared by
    * every index with the same c, so no index is charged for it.
    */
  private def allocatedBytes(obj: AnyRef): Long =
    obj.getClass.getDeclaredFields.iterator
      .filterNot(f => Modifier.isStatic(f.getModifiers))
      .map { f =>
        f.setAccessible(true)
        val t = f.getType
        f.get(obj) match {
          case null => 0L
          case a if t.isArray && t.getComponentType.isPrimitive =>
            JArray.getLength(a).toLong * elemBytes(t.getComponentType)
          case x: JacobsonIndex => allocatedBytes(x)
          case x: ByteWidthArray => allocatedBytes(x)
          case _ => 0L // scalars, and the shared JacobsonIndex.PopcountMap
        }
      }.sum

  private def elemBytes(t: Class[_]): Int =
    if (t == java.lang.Long.TYPE || t == java.lang.Double.TYPE) 8
    else if (t == java.lang.Integer.TYPE || t == java.lang.Float.TYPE) 4
    else if (t == java.lang.Short.TYPE || t == java.lang.Character.TYPE) 2
    else 1

  for (c <- Seq(8, 16)) test(s"reported bytes equal allocated bytes at c=$c") {
    val n = 1 << 20
    val present = randomPresent(n, 0.5, seed = c)
    val idx = JacobsonIndex(present, c, 16)
    assert(math.abs(idx.bytes - allocatedBytes(idx)) <= 64,
      s"index reports ${idx.bytes} B, allocates ${allocatedBytes(idx)} B")
    val dense = Array.tabulate(n)(p => if (present(p)) p.toLong else NullCompressedColumn.Null)
    val col = NullCompressedColumn(dense, c, 16)
    assert(col.bytes == col.indexBytes + ByteWidthArray(dense.filter(_ != NullCompressedColumn.Null)).bytes)
    assert(math.abs(col.bytes - allocatedBytes(col)) <= 64,
      s"column reports ${col.bytes} B, allocates ${allocatedBytes(col)} B")
  }

  test("static map size is 1MB at c=16 (paper §5.3)") {
    assert(JacobsonIndex.popcountMap(16).bytes == (1L << 16) * 16)
    assert(JacobsonIndex.popcountMap(8).bytes == (1L << 8) * 8)
  }

  test("popcount map entries are exact") {
    val map = JacobsonIndex.popcountMap(8)
    for (b <- 0 until 256; i <- 0 until 8) {
      val expected = java.lang.Integer.bitCount(b & ((1 << i) - 1))
      assert(map.onesBefore(b, i) == expected, s"M($b, $i)")
    }
  }
}
