package repro.storage

import repro.SparkSpec
import repro.core.Values
import repro.util.ByteWidthArray

class CsrSpec extends SparkSpec {

  private def lensOf(n: Int, emptyFrac: Double, seed: Int): Array[Int] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(if (rnd.nextDouble() < emptyFrac) 0 else 1 + rnd.nextInt(5))
  }

  for {
    emptyFrac <- Seq(0.0, 0.3, 0.6, 0.95)
    nullCompress <- Seq(false, true)
  } test(s"offsets (compress=$nullCompress) agree with plain prefix sums at emptyFrac=$emptyFrac") {
    val lens = lensOf(2000, emptyFrac, seed = (emptyFrac * 100).toInt)
    val off = CsrAdjacency.buildOffsets(lens, suppress = true, nullCompress = nullCompress,
      threshold = 0.05, c = 16, m = 16)
    var acc = 0
    lens.indices.foreach { v =>
      assert((off.start(v) == -1) == (lens(v) == 0), s"empty at $v")
      if (lens(v) > 0) {
        assert(off.start(v) == acc, s"start at $v")
        assert(off.end(v) == acc + lens(v), s"end at $v")
      }
      acc += lens(v)
    }
  }

  for {
    nullCompress <- Seq(false, true)
    lastEmpty <- Seq(false, true)
  } test(s"ranges matches start/end (compress=$nullCompress, last list empty=$lastEmpty)") {
    val lens = lensOf(3000, 0.5, seed = 7)
    lens(lens.length - 1) = if (lastEmpty) 0 else 4
    val off = CsrAdjacency.buildOffsets(lens, suppress = true, nullCompress = nullCompress,
      threshold = 0.05, c = 16, m = 16)
    assert(off.isInstanceOf[CompressedOffsets] == nullCompress)
    // Every vertex once, in a shuffled order, then the last vertex again.
    val vs = (new scala.util.Random(3).shuffle(lens.indices.toVector) :+ (lens.length - 1)).map(_.toLong).toArray
    val starts = new Array[Int](vs.length)
    val ends = new Array[Int](vs.length)
    off.ranges(vs, vs.length, starts, ends)
    vs.indices.foreach { i =>
      val v = vs(i).toInt
      if (off.start(v) == -1) assert(starts(i) == -1, s"empty list of $v")
      else {
        assert(starts(i) == off.start(v), s"start of $v")
        assert(ends(i) == off.end(v), s"end of $v")
      }
    }
  }

  test("nullCompress triggers CompressedOffsets only above the threshold") {
    val dense = CsrAdjacency.buildOffsets(lensOf(1000, 0.01, 1), suppress = true,
      nullCompress = true, threshold = 0.05, c = 16, m = 16)
    assert(dense.isInstanceOf[PlainOffsets])
    val sparse = CsrAdjacency.buildOffsets(lensOf(1000, 0.5, 2), suppress = true,
      nullCompress = true, threshold = 0.05, c = 16, m = 16)
    assert(sparse.isInstanceOf[CompressedOffsets])
    // The boundary: exactly 5% empty lists stays plain, one more compresses.
    def firstEmpty(empties: Int) = Array.tabulate(1000)(v => if (v < empties) 0 else 1 + v % 3)
    assert(CsrAdjacency.buildOffsets(firstEmpty(50), suppress = true,
      nullCompress = true, threshold = 0.05, c = 16, m = 16).isInstanceOf[PlainOffsets])
    assert(CsrAdjacency.buildOffsets(firstEmpty(51), suppress = true,
      nullCompress = true, threshold = 0.05, c = 16, m = 16).isInstanceOf[CompressedOffsets])
  }

  test("compressed offsets save memory on half-empty lists (Table 4 claim)") {
    val lens = lensOf(100000, 0.5, 3)
    val plain = CsrAdjacency.buildOffsets(lens, suppress = true, nullCompress = false, 0.05, 16, 16)
    val comp = CsrAdjacency.buildOffsets(lens, suppress = true, nullCompress = true, 0.05, 16, 16)
    assert(comp.bytes < plain.bytes, s"${comp.bytes} vs ${plain.bytes}")
  }

  test("CsrAdjacency start/end/nbr/edgeVal views") {
    val lens = Array(2, 0, 1)
    val off = CsrAdjacency.buildOffsets(lens, suppress = true, nullCompress = false, 0.05, 16, 16)
    val adj = new CsrAdjacency(off, ByteWidthArray(Array(5L, 6L, 7L)), ByteWidthArray(Array(0L, 1L, 0L)))
    assert(adj.start(0) == 0 && adj.end(0) == 2)
    assert(adj.start(1) == -1)
    assert(adj.start(2) == 2 && adj.end(2) == 3)
    assert(adj.nbr(1) == 6L && adj.edgeVal(2) == 0L)
    assert(adj.hasEdgeVals)
    val noEv = new CsrAdjacency(off, ByteWidthArray(Array(5L, 6L, 7L)), null)
    assert(!noEv.hasEdgeVals && noEv.edgeVal(0) == 0L)
  }

  test("SingleAdjacency returns Null for missing edges") {
    val col = VColumn(Array(3L, Values.Null, 0L), suppress = true, nullCompress = false)
    val adj = new SingleAdjacency(col)
    assert(adj.nbr(0) == 3L)
    assert(adj.nbr(1) == Values.Null)
    assert(adj.nbr(2) == 0L)
  }
}
