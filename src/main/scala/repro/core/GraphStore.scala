package repro.core

import repro.storage._

/** In-memory graph database instance under one [[StorageConfig]].
  *
  * Mirrors GraphflowDB's storage components (paper §2): topology in
  * doubly-indexed adjacency structures partitioned by edge label, vertex
  * properties, and edge properties — each realised per the configuration
  * (GF-RV rows vs the columnar ladder).
  */
final class GraphStore(
    val schema: GraphSchema,
    val config: StorageConfig,
    val vertexCounts: Array[Int],
    val edgeCounts: Array[Int],
    vertexCols: Array[PropertyStore], // per vertex label: ColumnSets; null under row storage
    vertexRows: Array[PropertyStore], // per vertex label: RowStores; null when columnar
    fwdAdj: Array[Adjacency],         // per edge label
    bwdAdj: Array[Adjacency],
    val edgeProps: Array[EdgeProps]
) extends Serializable {

  def columnar: Boolean = config.columnar

  def adjacency(edgeLabel: Int, forward: Boolean): Adjacency =
    if (forward) fwdAdj(edgeLabel) else bwdAdj(edgeLabel)

  // Two fields, one of them null, because perfbench's HeapWalker finds the
  // vertex component by these names.
  private def vertexStores: Array[PropertyStore] = if (vertexCols != null) vertexCols else vertexRows

  /** The properties of the vertices of `label`, indexed by offset. */
  def vertexProps(label: Int): PropertyStore = vertexStores(label)

  def vertexLong(label: Int, v: Int, prop: Int): Long = vertexProps(label).getLong(v, prop)
  def vertexString(label: Int, v: Int, prop: Int): String = vertexProps(label).getString(v, prop)

  // ---- memory accounting (Table 2 components) ----

  def vertexPropBytes: Long = vertexStores.map(_.bytes).sum

  def edgePropBytes: Long = edgeProps.map(_.bytes).sum

  def fwdAdjBytes: Long = fwdAdj.map(_.bytes).sum
  def bwdAdjBytes: Long = bwdAdj.map(_.bytes).sum

  def totalBytes: Long = vertexPropBytes + edgePropBytes + fwdAdjBytes + bwdAdjBytes

  /** Per-label adjacency + (owner-column) property bytes — Table 4's
    * "Mem (in MB)" column for a single edge label.
    */
  def labelBytes(edgeLabel: Int): Long =
    fwdAdj(edgeLabel).bytes + bwdAdj(edgeLabel).bytes + edgeProps(edgeLabel).bytes
}
