package repro.exp

import repro.SparkSpec

class TimingSpec extends SparkSpec {

  test("measure calls its body exactly warm-ups + runs times") {
    var calls = 0
    Timing.measure { calls += 1; calls }
    assert(calls == Timing.WarmUps + Timing.Runs)
  }

  test("measure returns one timing per run, with min <= median <= max") {
    val s = Timing.measure((1 to 1000).sum)
    assert(s.n == Timing.Runs)
    assert(s.min >= 0)
    assert(s.min <= s.median && s.median <= s.max)
  }

  test("Sample.of gives median, min and max of fixed timings") {
    assert(Sample.of(Array(5.0, 1.0, 4.0, 2.0, 3.0)) == Sample(3.0, 1.0, 5.0, 5))
    assert(Sample.of(Array(9.0, 1.0, 1.0, 1.0, 2.0)) == Sample(1.0, 1.0, 9.0, 5))
    // An even count takes the mean of the middle two.
    assert(Sample.of(Array(4.0, 1.0, 3.0, 2.0)) == Sample(2.5, 1.0, 4.0, 4))
    assert(Sample.of(Array(7.5)) == Sample(7.5, 7.5, 7.5, 1))
    intercept[IllegalArgumentException](Sample.of(Array.empty[Double]))
  }

  test("Sample.of leaves its input in place") {
    val ms = Array(3.0, 1.0, 2.0)
    Sample.of(ms)
    assert(ms.sameElements(Array(3.0, 1.0, 2.0)))
  }

  test("fmt prints median [min-max]") {
    assert(Timing.fmt(Sample(12.34, 1.5, 250.0, 5)) == "12.3 [1.50-250]")
  }
}
