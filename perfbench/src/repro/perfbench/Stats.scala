package repro.perfbench

/** Order statistics and the one-line JSON the benchmark prints. */
object Stats {

  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.length - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** The highest percentile, at most p99, with at least ten samples
    * beyond it; the median when the sample is too small for that.
    */
  def tailQuantile(n: Int): Double = math.max(0.5, math.min(0.99, 1.0 - 10.0 / n))

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), s"geomean needs positive values: $xs")
    math.exp(xs.map(math.log).sum / xs.length)
  }
}

/** A metric value with its unit, as printed in the result line. */
final case class Metric(value: Double, unit: String)

object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x is not a finite number")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def metrics(ms: Seq[(String, Metric)]): String =
    obj(ms.map { case (k, m) => k -> obj(Seq("value" -> num(m.value), "unit" -> str(m.unit))) })
}
