package repro.storage

import repro.SparkSpec
import repro.core.Values

class VColumnSpec extends SparkSpec {

  private def dense(n: Int, nullFrac: Double, maxV: Int, seed: Int): Array[Long] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(if (rnd.nextDouble() < nullFrac) Values.Null else rnd.nextInt(maxV).toLong)
  }

  for {
    nullFrac <- Seq(0.0, 0.02, 0.3, 0.8)
    suppress <- Seq(false, true)
    nullCompress <- Seq(false, true)
  } test(s"round-trip nullFrac=$nullFrac suppress=$suppress nullCompress=$nullCompress") {
    val d = dense(5000, nullFrac, 1000, seed = (nullFrac * 100).toInt + (if (suppress) 1 else 0))
    val col = VColumn(d, suppress, nullCompress)
    d.indices.foreach(i => assert(col.get(i) == d(i), s"at $i"))
    // The block read, in place over shuffled handles, through the store.
    val handles = new scala.util.Random(5).shuffle(d.indices.toVector).map(_.toLong).toArray
    val values = handles.clone
    new ColumnSet(Array(col), Array(null)).gatherLong(0, values, values.length, values)
    handles.indices.foreach(i => assert(values(i) == d(handles(i).toInt), s"gathered at $i"))
  }

  test("compression engages only above the null threshold") {
    assert(VColumn(dense(1000, 0.02, 100, 1), suppress = true, nullCompress = true)
      .isInstanceOf[PlainVColumn])
    assert(VColumn(dense(1000, 0.5, 100, 2), suppress = true, nullCompress = true)
      .isInstanceOf[CompressedVColumn])
    // The boundary: exactly 5% NULLs stays plain, one more compresses.
    def firstNull(nulls: Int) = Array.tabulate(1000)(i => if (i < nulls) Values.Null else i.toLong)
    assert(VColumn(firstNull(50), suppress = true, nullCompress = true).isInstanceOf[PlainVColumn])
    assert(VColumn(firstNull(51), suppress = true, nullCompress = true).isInstanceOf[CompressedVColumn])
  }

  test("sentinel stays inside the suppressed width (255 values + NULL fits 1 byte)") {
    val d = dense(1000, 0.02, 255, 3) // max value 254, sentinel 255
    val col = VColumn(d, suppress = true, nullCompress = false)
    assert(col.bytes == 1000L)
    d.indices.foreach(i => assert(col.get(i) == d(i)))
  }

  test("zero suppression shrinks small-domain columns 8x") {
    val d = dense(8000, 0.0, 200, 4)
    val un = VColumn(d, suppress = false, nullCompress = false)
    val sup = VColumn(d, suppress = true, nullCompress = false)
    assert(un.bytes == 8 * sup.bytes)
  }

  test("ColumnSet decodes string codes through its dictionary") {
    val dict = repro.compress.Dictionary(Seq("a", "b", "c"))
    val codes = Array(2L, 0L, Values.Null, 1L)
    val col = VColumn(codes, suppress = true, nullCompress = false, fixedWidth = dict.codeWidth)
    val cs = new ColumnSet(Array(col), Array(dict))
    assert(cs.getString(0, 0) == "c")
    assert(cs.getString(1, 0) == "a")
    assert(cs.getString(2, 0) == null)
    assert(cs.getLong(3, 0) == 1L)
  }
}
