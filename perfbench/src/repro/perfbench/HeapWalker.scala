package repro.perfbench

import java.lang.reflect.{Field, Modifier}
import repro.core.GraphStore

/** Allocated bytes reachable from an object graph, found by reflection
  * rather than taken from the program's own accounting.
  *
  * Sizes follow the HotSpot layout of a heap below 32 GB (compressed
  * oops): 12-byte object headers, 16-byte array headers, 4-byte
  * references, every object padded to 8 bytes. Field packing gaps are not
  * modelled, so objects with mixed field widths may be off by a few bytes.
  * Each object is counted once per walk, however many paths reach it.
  */
final class HeapWalker {
  private val seen = new java.util.IdentityHashMap[AnyRef, java.lang.Boolean]()

  /** Bytes reachable from `root` that this walk has not counted yet. */
  def add(root: AnyRef): Long = {
    var total = 0L
    val stack = new java.util.ArrayDeque[AnyRef]()
    if (root != null) stack.push(root)
    while (!stack.isEmpty) {
      val o = stack.pop()
      if (seen.put(o, java.lang.Boolean.TRUE) == null) {
        val cls = o.getClass
        if (cls.isArray) {
          val len = java.lang.reflect.Array.getLength(o)
          val ct = cls.getComponentType
          total += HeapWalker.align(16L + len.toLong * HeapWalker.slotBytes(ct))
          if (!ct.isPrimitive) {
            val arr = o.asInstanceOf[Array[AnyRef]]
            var i = 0
            while (i < len) { val x = arr(i); if (x != null) stack.push(x); i += 1 }
          }
        } else if (!o.isInstanceOf[Class[_]]) {
          val layout = HeapWalker.layoutOf(cls)
          total += layout.shallow
          layout.refs.foreach { f =>
            val x = f.get(o)
            if (x != null) stack.push(x)
          }
        }
      }
    }
    total
  }
}

object HeapWalker {
  private final class Layout(val shallow: Long, val refs: Array[Field])
  private val layouts = new java.util.concurrent.ConcurrentHashMap[Class[_], Layout]()

  private def align(b: Long): Long = (b + 7) & ~7L

  private def slotBytes(t: Class[_]): Int =
    if (t == java.lang.Long.TYPE || t == java.lang.Double.TYPE) 8
    else if (t == java.lang.Integer.TYPE || t == java.lang.Float.TYPE) 4
    else if (t == java.lang.Short.TYPE || t == java.lang.Character.TYPE) 2
    else if (t == java.lang.Byte.TYPE || t == java.lang.Boolean.TYPE) 1
    else 4

  private def layoutOf(cls: Class[_]): Layout = layouts.computeIfAbsent(cls, { c =>
    var bytes = 12L
    val refs = scala.collection.mutable.ArrayBuffer.empty[Field]
    var k: Class[_] = c
    while (k != null) {
      k.getDeclaredFields.foreach { f =>
        if (!Modifier.isStatic(f.getModifiers)) {
          bytes += slotBytes(f.getType)
          // A field the module system keeps closed is sized but not walked.
          if (!f.getType.isPrimitive && f.trySetAccessible()) refs += f
        }
      }
      k = k.getSuperclass
    }
    new Layout(align(bytes), refs.toArray)
  })

  /** Per-component allocated bytes of a store, in the components of
    * `GraphStore.totalBytes`, plus everything else reachable from it
    * (schema, counts, shared lookup tables) under "other".
    */
  def storeComponents(store: GraphStore): Seq[(String, Long)] = {
    val w = new HeapWalker
    def field(suffix: String): AnyRef = {
      val f = classOf[GraphStore].getDeclaredFields.find(_.getName.endsWith(suffix))
        .getOrElse(throw new IllegalStateException(s"GraphStore has no field *$suffix"))
      f.setAccessible(true)
      f.get(store)
    }
    val vertex = w.add(field("vertexCols")) + w.add(field("vertexRows"))
    val edge = w.add(store.edgeProps)
    val fwd = w.add(field("fwdAdj"))
    val bwd = w.add(field("bwdAdj"))
    val other = w.add(store)
    Seq("vertex_props" -> vertex, "edge_props" -> edge, "fwd_adj" -> fwd, "bwd_adj" -> bwd,
      "other" -> other)
  }

  def storeBytes(store: GraphStore): Long = storeComponents(store).map(_._2).sum
}
