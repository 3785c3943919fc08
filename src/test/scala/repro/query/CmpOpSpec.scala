package repro.query

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.core.Values

/** The selection primitives agree with the one comparison table,
  * [[CmpOp.holds]], for every operator, with NULLs, with and without an
  * input selection vector, and when they compact that vector in place.
  */
class CmpOpSpec extends SparkSpec {

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  private val ops = Seq(LT, LE, GT, GE, EQ, NE)
  // A small domain so that equal values are common; one value in five is NULL.
  private val value: Gen[Long] = Gen.frequency(4 -> Gen.choose(-3L, 3L), 1 -> Gen.const(Values.Null))
  private val values: Gen[Array[Long]] = Gen.listOf(value).map(_.toArray)

  /** Selection positions for `n` values: null (identity) or an increasing
    * subset of a larger block.
    */
  private def positions(n: Int): Gen[Array[Int]] =
    Gen.oneOf(Gen.const(null: Array[Int]),
      Gen.listOfN(n, Gen.choose(1, 3)).map(_.scanLeft(0)(_ + _).tail.toArray))

  private def at(pos: Array[Int], i: Int): Int = if (pos == null) i else pos(i)

  /** Run a selection into a fresh array and in place over a copy of `pos`;
    * both must equal the positions whose value passes.
    */
  private def agrees(pos: Array[Int], n: Int, pass: Int => Boolean)(
      run: (Array[Int], Array[Int]) => Int): Boolean = {
    val want = (0 until n).filter(pass).map(at(pos, _))
    val out = new Array[Int](n)
    val k = run(pos, out)
    val inPlace = if (pos == null) true else {
      val p = pos.clone
      val k2 = run(p, p)
      p.take(k2).toSeq == want
    }
    out.take(k).toSeq == want && inPlace
  }

  test("select agrees with holds for every operator, NULLs and selections") {
    check(Prop.forAll(values, value, Gen.oneOf(ops)) { (xs, b, op) =>
      Prop.forAll(positions(xs.length)) { pos =>
        agrees(pos, xs.length, i => xs(i) != Values.Null && b != Values.Null && CmpOp.holds(op.code, xs(i), b)) {
          (p, out) => CmpOp.select(op.code, xs, xs.length, b, p, out)
        }
      }
    })
  }

  test("selectPairs agrees with holds on two value arrays") {
    check(Prop.forAll(values, Gen.oneOf(ops)) { (xs, op) =>
      Prop.forAll(Gen.listOfN(xs.length, value).map(_.toArray), positions(xs.length)) { (ys, pos) =>
        agrees(pos, xs.length,
          i => xs(i) != Values.Null && ys(i) != Values.Null && CmpOp.holds(op.code, xs(i), ys(i))) {
          (p, out) => CmpOp.selectPairs(op.code, xs, ys, xs.length, p, out)
        }
      }
    })
  }

  test("selectIn keeps the values in the code set") {
    check(Prop.forAll(values, Gen.listOf(Gen.choose(-3L, 3L))) { (xs, set) =>
      val codes = set.distinct.sorted.toArray
      Prop.forAll(positions(xs.length)) { pos =>
        agrees(pos, xs.length, i => xs(i) != Values.Null && codes.contains(xs(i))) {
          (p, out) => CmpOp.selectIn(codes, xs, xs.length, p, out)
        }
      }
    })
  }

  test("select only reads the first n values") {
    val xs = Array(1L, 2L, 3L, 4L)
    val out = new Array[Int](4)
    assert(CmpOp.select(GE.code, xs, 2, 0L, null, out) == 2)
    assert(out.take(2).toSeq == Seq(0, 1))
  }
}
