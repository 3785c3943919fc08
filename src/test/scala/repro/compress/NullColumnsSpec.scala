package repro.compress

import repro.SparkSpec
import repro.core.Values

class NullColumnsSpec extends SparkSpec {

  private def randomDense(n: Int, nullFrac: Double, seed: Int): Array[Long] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(if (rnd.nextDouble() < nullFrac) Values.Null else rnd.nextInt(1 << 20).toLong)
  }

  for (nullFrac <- Seq(0.0, 0.1, 0.5, 0.9, 1.0); n <- Seq(0, 1, 63, 64, 65, 100, 127, 128, 129, 70000)) {
    test(f"NullCompressedColumn round-trips at nullFrac=$nullFrac n=$n") {
      val dense = randomDense(n, nullFrac, seed = n + (nullFrac * 10).toInt)
      val col = NullCompressedColumn(dense)
      dense.indices.foreach { i =>
        assert(col.isNull(i) == (dense(i) == Values.Null), s"isNull at $i")
        assert(col.get(i) == dense(i), s"get at $i")
      }
    }

    test(f"VanillaNullColumn round-trips at nullFrac=$nullFrac n=$n") {
      val dense = randomDense(n, nullFrac, seed = 7 * n + (nullFrac * 10).toInt)
      val col = VanillaNullColumn(dense)
      dense.indices.foreach(i => assert(col.get(i) == dense(i), s"get at $i"))
    }
  }

  test("compressed column is smaller than dense 8-byte storage when sparse") {
    val dense = randomDense(100000, 0.9, 3)
    val col = NullCompressedColumn(dense)
    assert(col.bytes < 100000L * 8 / 4, s"bytes = ${col.bytes}")
  }

  test("suppress=false keeps 8-byte values") {
    val dense = randomDense(1000, 0.5, 4)
    val a = NullCompressedColumn(dense, suppress = false)
    val b = NullCompressedColumn(dense, suppress = true)
    assert(a.bytes > b.bytes)
    dense.indices.foreach(i => assert(a.get(i) == b.get(i)))
  }

  test("Jacobson variant agrees with vanilla variant everywhere") {
    val dense = randomDense(50000, 0.3, 5)
    val j = NullCompressedColumn(dense)
    val v = VanillaNullColumn(dense)
    dense.indices.foreach(i => assert(j.get(i) == v.get(i)))
  }
}
