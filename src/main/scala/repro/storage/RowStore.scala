package repro.storage

import repro.compress.Dictionary
import repro.core.Values

/** Interpreted attribute layout (paper §2 / §8, GF-RV's storage): each
  * entity's properties are a variable-length record of (key, type, value)
  * triples in a byte heap, reached through an 8-byte pointer per entity —
  * GF-RV keeps a pointer per edge even when the label has no properties.
  * Property reads scan the record comparing keys; strings are raw bytes.
  */
final class RowStore(heap: Array[Byte], ptrs: Array[Long]) extends PropertyStore {

  /** Numeric property `key` of `entity`, or [[Values.Null]]. Linear in the
    * record length — the key-scan cost the paper's columns eliminate.
    */
  def getLong(entity: Int, key: Int): Long = {
    var p = ptrs(entity).toInt
    val nProps = heap(p) & 0xff
    p += 1
    var i = 0
    while (i < nProps) {
      val k = heap(p) & 0xff
      val t = heap(p + 1) & 0xff
      p += 2
      if (k == key) {
        return t match {
          case RowStore.TInt  => readInt(p).toLong
          case RowStore.TLong => readLong8(p)
          case _              => Values.Null // string read via getString
        }
      }
      p += RowStore.valueLen(t, heap, p)
      i += 1
    }
    Values.Null
  }

  def getString(entity: Int, key: Int): String = {
    var p = ptrs(entity).toInt
    val nProps = heap(p) & 0xff
    p += 1
    var i = 0
    while (i < nProps) {
      val k = heap(p) & 0xff
      val t = heap(p + 1) & 0xff
      p += 2
      if (k == key && t == RowStore.TString) {
        val len = ((heap(p) & 0xff) << 8) | (heap(p + 1) & 0xff)
        return new String(heap, p + 2, len, java.nio.charset.StandardCharsets.UTF_8)
      }
      p += RowStore.valueLen(t, heap, p)
      i += 1
    }
    null
  }

  private def readInt(p: Int): Int =
    ((heap(p) & 0xff) << 24) | ((heap(p + 1) & 0xff) << 16) | ((heap(p + 2) & 0xff) << 8) | (heap(p + 3) & 0xff)

  private def readLong8(p: Int): Long =
    (readInt(p).toLong << 32) | (readInt(p + 4).toLong & 0xffffffffL)

  def reader(key: Int): Long => Long = h => getLong(h.toInt, key)

  /** Rows store strings raw: no dictionary. */
  def dict(key: Int): Dictionary = null

  def bytes: Long = heap.length.toLong + ptrs.length.toLong * 8
}

object RowStore {
  final val TInt = 0
  final val TLong = 1
  final val TString = 2

  private[storage] def valueLen(t: Int, heap: Array[Byte], p: Int): Int = t match {
    case TInt    => 4
    case TLong   => 8
    case TString => 2 + (((heap(p) & 0xff) << 8) | (heap(p + 1) & 0xff))
    case other   => throw new IllegalStateException(s"bad type tag $other")
  }

  /** Builder: call `startRecord` per entity then `addLong`/`addString` per
    * present property; absent (NULL) properties are simply not written.
    */
  final class Builder(numEntities: Int) {
    private val out = new java.io.ByteArrayOutputStream(numEntities * 8)
    private val ptrs = new Array[Long](numEntities)
    private var cur = -1
    private var nProps = 0
    private val pending = new java.io.ByteArrayOutputStream(64)

    def startRecord(entity: Int): Unit = {
      flush()
      cur = entity
      ptrs(entity) = out.size().toLong
      nProps = 0
    }

    private def flush(): Unit = {
      if (cur >= 0) {
        require(nProps < 256, "record property count overflow")
        out.write(nProps)
        pending.writeTo(out)
        pending.reset()
      }
      cur = -1
    }

    def addLong(key: Int, value: Long, asInt: Boolean): Unit = {
      pending.write(key)
      if (asInt) {
        pending.write(TInt)
        writeInt(value.toInt)
      } else {
        pending.write(TLong)
        writeInt((value >>> 32).toInt); writeInt(value.toInt)
      }
      nProps += 1
    }

    def addString(key: Int, value: String): Unit = {
      val bytes = value.getBytes(java.nio.charset.StandardCharsets.UTF_8)
      require(bytes.length < 65536, "string too long for row store")
      pending.write(key)
      pending.write(TString)
      pending.write((bytes.length >>> 8) & 0xff)
      pending.write(bytes.length & 0xff)
      pending.write(bytes, 0, bytes.length)
      nProps += 1
    }

    private def writeInt(v: Int): Unit = {
      pending.write((v >>> 24) & 0xff); pending.write((v >>> 16) & 0xff)
      pending.write((v >>> 8) & 0xff); pending.write(v & 0xff)
    }

    def result(): RowStore = {
      flush()
      new RowStore(out.toByteArray, ptrs)
    }
  }
}
