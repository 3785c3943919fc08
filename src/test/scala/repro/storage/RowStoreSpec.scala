package repro.storage

import repro.SparkSpec
import repro.core.Values

class RowStoreSpec extends SparkSpec {

  test("round-trips mixed int/long/string records with absent properties") {
    val b = new RowStore.Builder(3)
    b.startRecord(0)
    b.addLong(0, 42L, asInt = true)
    b.addString(1, "hello")
    b.startRecord(1) // empty record: all properties NULL
    b.startRecord(2)
    b.addLong(0, 1L << 40, asInt = false)
    b.addString(2, "")
    val rs = b.result()

    assert(rs.getLong(0, 0) == 42L)
    assert(rs.getString(0, 1) == "hello")
    assert(rs.getLong(0, 2) == Values.Null)
    assert(rs.getLong(1, 0) == Values.Null)
    assert(rs.getString(1, 1) == null)
    assert(rs.getLong(2, 0) == (1L << 40))
    assert(rs.getString(2, 2) == "")
  }

  test("key scan finds later keys after variable-length strings") {
    val b = new RowStore.Builder(1)
    b.startRecord(0)
    b.addString(0, "a" * 300)
    b.addLong(1, 7L, asInt = true)
    b.addString(2, "tail")
    val rs = b.result()
    assert(rs.getLong(0, 1) == 7L)
    assert(rs.getString(0, 2) == "tail")
  }

  test("bytes include per-entity pointer cost (8B) even for empty records") {
    val b = new RowStore.Builder(10)
    (0 until 10).foreach(b.startRecord)
    val rs = b.result()
    // 10 pointers * 8B + 10 one-byte empty records.
    assert(rs.bytes == 10 * 8 + 10)
  }

  test("unicode strings survive the byte heap") {
    val b = new RowStore.Builder(1)
    b.startRecord(0)
    b.addString(0, "héllo wörld ≠")
    assert(b.result().getString(0, 0) == "héllo wörld ≠")
  }

  test("random records round-trip") {
    val rnd = new scala.util.Random(11)
    val n = 500
    val data = Array.tabulate(n) { _ =>
      (0 until 4).map { k =>
        rnd.nextInt(3) match {
          case 0 => (k, null: Any)
          case 1 => (k, rnd.nextInt(1000000).toLong: Any)
          case 2 => (k, rnd.alphanumeric.take(rnd.nextInt(20)).mkString: Any)
        }
      }
    }
    val b = new RowStore.Builder(n)
    data.zipWithIndex.foreach { case (props, i) =>
      b.startRecord(i)
      props.foreach {
        case (k, v: Long)   => b.addLong(k, v, asInt = true)
        case (k, v: String) => b.addString(k, v)
        case _              => ()
      }
    }
    val rs = b.result()
    data.zipWithIndex.foreach { case (props, i) =>
      props.foreach {
        case (k, v: Long)   => assert(rs.getLong(i, k) == v)
        case (k, v: String) => assert(rs.getString(i, k) == v)
        case (k, _)         => assert(rs.getLong(i, k) == Values.Null)
      }
    }
  }
}
