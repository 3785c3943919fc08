package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer

class TimingSpec extends AnyFunSuite {

  /** A system body that logs each call as (system, call number) and returns
    * `value(call number)`.
    */
  private def body(log: ArrayBuffer[(String, Int)], name: String)(value: Int => Long): () => Long = {
    var calls = 0
    () => { calls += 1; log += ((name, calls)); value(calls) }
  }

  test("table checks every cell, then warms every cell, then times every cell") {
    val log = ArrayBuffer.empty[(String, Int)]
    val cells = Seq(
      Timing.Cell("c1", Seq("a" -> body(log, "a")(_ => 7L), "b" -> body(log, "b")(_ => 7L))),
      Timing.Cell("c2", Seq("c" -> body(log, "c")(_ => 3L))))
    Timing.table(cells)
    // Call k of a body falls in pass 1 (k = 1), 2 (warm-ups) or 3 (timed).
    def pass(k: Int) = if (k == 1) 1 else if (k <= 1 + Timing.WarmUps) 2 else 3
    val passes = log.map { case (_, k) => pass(k) }
    assert(passes == passes.sorted, s"passes interleave: $log")
    assert(log.take(3).map(_._1) == Seq("a", "b", "c"))
  }

  test("table calls each body exactly 1 + warm-ups + runs times") {
    val log = ArrayBuffer.empty[(String, Int)]
    Timing.table(Seq(
      Timing.Cell("c1", Seq("a" -> body(log, "a")(_ => 7L), "b" -> body(log, "b")(_ => 7L))),
      Timing.Cell("c2", Seq("c" -> body(log, "c")(_ => 3L)))))
    val perBody = 1 + Timing.WarmUps + Timing.Runs
    assert(log.groupBy(_._1).view.mapValues(_.size).toMap == Map("a" -> perBody, "b" -> perBody, "c" -> perBody))
  }

  test("table returns each cell's value and one timing per run, min <= median <= max") {
    val t = Timing.table(Seq(
      Timing.Cell("c1", Seq("a" -> (() => 5L), "b" -> (() => 5L))),
      Timing.Cell("c2", Seq("a" -> (() => (1 to 1000).sum.toLong)))))
    assert(t.map(_.value) == Seq(5L, 500500L))
    assert(t.map(_.samples.size) == Seq(2, 1))
    t.flatMap(_.samples).foreach { s =>
      assert(s.n == Timing.Runs)
      assert(s.min >= 0)
      assert(s.min <= s.median && s.median <= s.max)
    }
  }

  test("systems that disagree fail the table, naming the cell and each value, before any timing") {
    val log = ArrayBuffer.empty[(String, Int)]
    val e = intercept[IllegalArgumentException](Timing.table(Seq(
      Timing.Cell("fine", Seq("a" -> body(log, "a")(_ => 1L))),
      Timing.Cell("LDBC 2-hop", Seq("x" -> body(log, "x")(_ => 10L), "y" -> body(log, "y")(_ => 11L))))))
    assert(e.getMessage.contains("LDBC 2-hop"))
    assert(e.getMessage.contains("x=10") && e.getMessage.contains("y=11"))
    assert(log == Seq(("a", 1), ("x", 1), ("y", 1)), "only the check pass may run")
  }

  test("a timed call that returns another value fails the table") {
    val log = ArrayBuffer.empty[(String, Int)]
    // Right through the check and the warm-ups, wrong on the last timed call.
    val flaky = body(log, "f")(k => if (k == 1 + Timing.WarmUps + Timing.Runs) 9L else 4L)
    val e = intercept[IllegalArgumentException](Timing.table(Seq(Timing.Cell("cell", Seq("f" -> flaky)))))
    assert(e.getMessage.contains("cell") && e.getMessage.contains("f returned 9"))
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

  test("fmt picks its decimals from the rounded value") {
    assert(Timing.fmt(Sample(9.9995, 9.994, 99.96, 5)) == "10.0 [9.99-100]")
    assert(Timing.fmt(Sample(99.94, 9.95, 100.4, 5)) == "99.9 [9.95-100]")
  }
}
