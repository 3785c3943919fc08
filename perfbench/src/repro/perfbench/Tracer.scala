package repro.perfbench

import scala.collection.mutable

/** Spans and counts recorded around the benchmark's calls into the
  * program's layers. Spans stay in primitive arrays until the run ends and
  * are written out once; a disabled tracer only evaluates the body.
  */
final class Tracer(var enabled: Boolean) {
  private val nameIds = mutable.HashMap.empty[String, Int]
  private val names = mutable.ArrayBuffer.empty[String]
  private var nameOf = new Array[Int](1024)
  private var startNs = new Array[Long](1024)
  private var endNs = new Array[Long](1024)
  private var parentOf = new Array[Int](1024)
  private var opOf = new Array[Long](1024)
  private var n = 0
  private var current = -1
  private val counts = mutable.LinkedHashMap.empty[String, Long]

  /** Identifier shared by the spans of one benchmark operation. */
  var op: Long = -1L

  def numSpans: Int = n

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val i = open(name)
      try body finally close(i)
    }

  def count(name: String, k: Long): Unit =
    if (enabled) counts(name) = counts.getOrElse(name, 0L) + k

  private def open(name: String): Int = {
    if (n == startNs.length) grow()
    val id = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })
    val i = n
    n += 1
    nameOf(i) = id
    parentOf(i) = current
    opOf(i) = op
    current = i
    startNs(i) = System.nanoTime()
    i
  }

  private def close(i: Int): Unit = {
    endNs(i) = System.nanoTime()
    current = parentOf(i)
  }

  private def grow(): Unit = {
    val m = n * 2
    nameOf = java.util.Arrays.copyOf(nameOf, m)
    startNs = java.util.Arrays.copyOf(startNs, m)
    endNs = java.util.Arrays.copyOf(endNs, m)
    parentOf = java.util.Arrays.copyOf(parentOf, m)
    opOf = java.util.Arrays.copyOf(opOf, m)
  }

  /** Durations (ns) of every closed span with this name, in start order. */
  def durations(name: String): Seq[Double] = nameIds.get(name) match {
    case None => Seq.empty
    case Some(id) => (0 until n).filter(i => nameOf(i) == id).map(i => (endNs(i) - startNs(i)).toDouble)
  }

  /** Durations of spans with this name whose parent span has `parentName`. */
  def durationsUnder(name: String, parentName: String): Seq[Double] =
    (nameIds.get(name), nameIds.get(parentName)) match {
      case (Some(id), Some(pid)) =>
        (0 until n).filter(i => nameOf(i) == id && parentOf(i) >= 0 && nameOf(parentOf(i)) == pid)
          .map(i => (endNs(i) - startNs(i)).toDouble)
      case _ => Seq.empty
    }

  /** Write spans as CSV (index, name, start, end, parent, op) and counts. */
  def writeTo(dir: java.nio.file.Path, stem: String): Unit = {
    java.nio.file.Files.createDirectories(dir)
    val w = new java.io.PrintWriter(java.nio.file.Files.newBufferedWriter(dir.resolve(s"$stem.spans.csv")))
    try {
      w.println("span,name,start_ns,end_ns,parent,op")
      var i = 0
      while (i < n) {
        w.println(s"$i,${names(nameOf(i))},${startNs(i)},${endNs(i)},${parentOf(i)},${opOf(i)}")
        i += 1
      }
    } finally w.close()
    val c = new java.io.PrintWriter(java.nio.file.Files.newBufferedWriter(dir.resolve(s"$stem.counts.csv")))
    try {
      c.println("name,count")
      counts.foreach { case (k, v) => c.println(s"$k,$v") }
    } finally c.close()
  }
}
