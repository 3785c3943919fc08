package repro.util

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec

class ByteWidthArraySpec extends SparkSpec {

  /** Run a ScalaCheck property and assert it passed. */
  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  test("widthFor picks minimal widths at boundaries") {
    assert(ByteWidthArray.widthFor(0) == 1)
    assert(ByteWidthArray.widthFor(255) == 1)
    assert(ByteWidthArray.widthFor(256) == 2)
    assert(ByteWidthArray.widthFor(65535) == 2)
    assert(ByteWidthArray.widthFor(65536) == 4)
    assert(ByteWidthArray.widthFor((1L << 32) - 1) == 4)
    assert(ByteWidthArray.widthFor(1L << 32) == 8)
    assert(ByteWidthArray.widthFor(Long.MaxValue) == 8)
  }

  for (width <- Seq(1, 2, 4, 8)) {
    test(s"round-trips values at width $width") {
      val max = if (width == 8) Long.MaxValue else (1L << (8 * width)) - 1
      val vals = Array(0L, 1L, max / 2, max - 1, max)
      val a = ByteWidthArray.at(vals, width)
      assert(a.width == width)
      vals.indices.foreach(i => assert(a.get(i) == vals(i), s"at $i"))
      assert(a.bytes == width.toLong * vals.length)
    }
  }

  for (width <- Seq(1, 2, 4, 8)) {
    test(s"gather and gatherAt match get at width $width") {
      val rnd = new scala.util.Random(width)
      val vals = Array.fill(300)(if (width == 8) rnd.nextLong() & Long.MaxValue else rnd.nextLong() >>> (64 - 8 * width))
      val a = ByteWidthArray.at(vals, width)
      val base = 17
      // With a selection vector (increasing positions past `base`) and without.
      val sel = Array.tabulate(60)(i => 2 * i + i % 3)
      val out = new Array[Long](sel.length)
      a.gather(base, sel, sel.length, out)
      sel.indices.foreach(i => assert(out(i) == a.get(base + sel(i)), s"sel at $i"))
      a.gather(base, null, 50, out)
      (0 until 50).foreach(i => assert(out(i) == a.get(base + i), s"dense at $i"))
      // Random indices, into a fresh array and in place (out == idx).
      val idx = Array.fill(100)(rnd.nextInt(vals.length).toLong)
      val at = new Array[Long](idx.length)
      a.gatherAt(idx, idx.length, at)
      idx.indices.foreach(i => assert(at(i) == vals(idx(i).toInt), s"gatherAt at $i"))
      val inPlace = idx.clone
      a.gatherAt(inPlace, 90, inPlace)
      assert(inPlace.take(90).toSeq == at.take(90).toSeq)
      assert(inPlace.drop(90).toSeq == idx.drop(90).toSeq, "gatherAt writes only the first n")
    }
  }

  test("ranges reads consecutive pairs; empty ranges and negative indices start at -1") {
    for (width <- Seq(1, 2, 4, 8)) {
      val a = ByteWidthArray.at(Array(0L, 2L, 2L, 5L), width)
      val idx = Array(0, 1, 2, -1)
      val ends = new Array[Int](4)
      a.ranges(idx, 4, idx, ends) // in place: starts == idx
      assert(idx.toSeq == Seq(0, -1, 2, -1), s"width $width")
      assert(ends(0) == 2 && ends(2) == 5, s"width $width")
    }
  }

  test("apply picks the minimal width for the content") {
    assert(ByteWidthArray(Array(0L, 200L)).width == 1)
    assert(ByteWidthArray(Array(0L, 60000L)).width == 2)
    assert(ByteWidthArray(Array(0L, 1L << 20)).width == 4)
    assert(ByteWidthArray(Array(0L, 1L << 40)).width == 8)
  }

  test("rejects negative values") {
    intercept[IllegalArgumentException](ByteWidthArray(Array(-1L)))
  }

  test("rejects unsupported explicit width") {
    intercept[IllegalArgumentException](ByteWidthArray.at(Array(1L), 3))
  }

  test("at writes nullAs in place of each NULL and leaves its input alone") {
    val in = Array(3L, repro.core.Values.Null, 7L)
    for (width <- Seq(1, 2, 4, 8)) {
      val a = ByteWidthArray.at(in, width, nullAs = 9L)
      assert((0 until 3).map(a.get) == Seq(3L, 9L, 7L), s"width $width")
    }
    assert(in(1) == repro.core.Values.Null)
  }

  test("empty array") {
    assert(ByteWidthArray.empty.length == 0)
    assert(ByteWidthArray(Array.empty[Long]).length == 0)
  }

  test("property: round-trip at minimal width for arbitrary non-negative longs") {
    check(Prop.forAll(Gen.listOf(Gen.chooseNum(0L, Long.MaxValue))) { (xs: List[Long]) =>
      val arr = xs.toArray
      val a = ByteWidthArray(arr)
      arr.indices.forall(i => a.get(i) == arr(i))
    })
  }

  test("property: truncation never occurs below the width bound") {
    check(Prop.forAll(Gen.chooseNum(0L, (1L << 16) - 1)) { (x: Long) =>
      ByteWidthArray(Array(x)).get(0) == x
    })
  }
}
