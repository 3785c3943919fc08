package repro.storage

import repro.SparkSpec
import repro.util.ByteWidthArray

class PropertyPagesSpec extends SparkSpec {

  /** Build pages for a toy graph: vertex v has lens(v) edges, property of
    * edge j in v's list = v * 1000 + j.
    */
  private def buildPages(lens: Array[Int], k: Int): (PropertyPages, Array[Array[Long]]) = {
    val total = lens.sum
    val values = new Array[Long](total)
    val perList = lens.indices.map(v => Array.tabulate(lens(v))(j => v * 1000L + j)).toArray
    var slot = 0
    lens.indices.foreach { v =>
      perList(v).foreach { x => values(slot) = x; slot += 1 }
    }
    val bases = PropertyPages.buildBases(lens, k, suppress = true)
    val col = VColumn(values, suppress = true, nullCompress = false)
    (new PropertyPages(k, bases, new ColumnSet(Array(col), Array(null))), perList)
  }

  for (k <- Seq(1, 2, 128)) test(s"slot lookup matches list order at k=$k") {
    val rnd = new scala.util.Random(k)
    val lens = Array.fill(500)(rnd.nextInt(6))
    val (pages, perList) = buildPages(lens, k)
    // pagePos of edge j of vertex v = (sum of lens of same-page vertices
    // before v) + j — exactly what GraphLoader assigns.
    lens.indices.foreach { v =>
      val pageStart = (v / k) * k
      val before = (pageStart until v).map(lens).sum
      (0 until lens(v)).foreach { j =>
        val pagePos = before + j
        assert(pages.getLong(pages.slot(v, pagePos), 0) == perList(v)(j), s"v=$v j=$j")
        // Forward and backward handles resolve to the same slot.
        assert(pages.handle(v, 999, pagePos, forward = true) ==
               pages.handle(999, v, pagePos, forward = false))
      }
    }
  }

  test("page-level positional offsets are small (compressible)") {
    val lens = Array.fill(10000)(4)
    val k = 128
    // Max page position = k * 4 - 1 = 511 < 2^16: fits 2 bytes after 0-SUPR.
    val maxPos = lens.indices.map { v =>
      val pageStart = (v / k) * k
      (pageStart until v).map(lens).sum + lens(v) - 1
    }.max
    assert(maxPos < 65536)
    assert(ByteWidthArray.widthFor(maxPos.toLong) == 2)
  }

  test("buildBases accumulates page sizes") {
    val bases = PropertyPages.buildBases(Array(1, 2, 3, 4, 5), k = 2, suppress = true)
    assert(bases.get(0) == 0)  // page {v0,v1}: 3 edges
    assert(bases.get(1) == 3)  // page {v2,v3}: 7 edges
    assert(bases.get(2) == 10) // page {v4}: 5 edges
    assert(bases.get(3) == 15)
  }

  // EdgeColumnStore, the +COLS global-ID store, is now GlobalIdEdgeProps; the
  // same assertions run with columns (+COLS, COL_E) and rows (GF-RV) behind it.
  test("EdgeColumnStore handle is the stored global edge ID") {
    val values = Array(10L, 20L, 30L)
    val rows = new RowStore.Builder(values.length)
    values.indices.foreach { i => rows.startRecord(i); rows.addLong(0, values(i), asInt = true) }
    val col = VColumn(values, suppress = true, nullCompress = false)
    for (props <- Seq[PropertyStore](new ColumnSet(Array(col), Array(null)), rows.result())) {
      val store = new GlobalIdEdgeProps(props)
      assert(store.handle(5, 7, 2, forward = true) == 2)
      assert(store.handle(7, 5, 2, forward = false) == 2)
      assert(store.getLong(2, 0) == 30L)
    }
  }

  test("NoEdgeProps refuses reads and costs nothing") {
    intercept[IllegalStateException](NoEdgeProps.getLong(0, 0))
    intercept[IllegalStateException](NoEdgeProps.getString(0, 0))
    assert(NoEdgeProps.bytes == 0L)
  }

  test("VColOwnerEdgeProps resolves the owner on both directions") {
    val col = VColumn(Array(100L, 200L), suppress = true, nullCompress = false)
    val n1 = new VColOwnerEdgeProps(ownerIsSrc = true, new ColumnSet(Array(col), Array(null)))
    // n-1: traversing forward from src=1 -> owner is src.
    assert(n1.handle(own = 1, nbr = 0, ev = 0, forward = true) == 1)
    // backward from dst: owner is the neighbour (the src).
    assert(n1.handle(own = 0, nbr = 1, ev = 0, forward = false) == 1)
    val oneN = new VColOwnerEdgeProps(ownerIsSrc = false, new ColumnSet(Array(col), Array(null)))
    assert(oneN.handle(own = 1, nbr = 0, ev = 0, forward = true) == 0)
    assert(oneN.handle(own = 0, nbr = 1, ev = 0, forward = false) == 0)
  }
}
