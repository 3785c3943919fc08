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
