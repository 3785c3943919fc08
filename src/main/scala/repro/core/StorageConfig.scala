package repro.core

/** Storage configuration — the step-wise optimization ladder of Table 2
  * plus the micro-benchmark variants of Tables 3 and 4.
  *
  * @param columnar      +COLS: vertex properties in vertex columns, edge
  *                      properties in single-indexed property pages, single
  *                      cardinality edges in vertex columns. When false the
  *                      store is GF-RV: interpreted-attribute-layout rows,
  *                      8-byte IDs, all edges in CSRs.
  * @param newIds        +NEW-IDS: (label, src vertex, page-level positional
  *                      offset) edge IDs; ID components factored out per the
  *                      decision tree of Fig. 6 (edge IDs omitted for
  *                      property-less and single-cardinality labels).
  * @param zeroSuppress  +0-SUPR: leading-0 suppression — minimal uniform
  *                      byte widths for ID components, offsets, and codes.
  * @param nullCompress  +NULL: Jacobson-indexed NULL compression of empty
  *                      adjacency lists and sparse columns (threshold
  *                      `nullThreshold`).
  * @param edgeColumns   Table 3 COL_E variant: edge properties in randomly
  *                      ordered edge columns instead of property pages.
  * @param singleCardAsCsr Table 4 CSR-* variant: store single-cardinality
  *                      edges in CSRs instead of vertex columns.
  * @param pageK         lists per property page (paper default 128).
  * @param c, m          Jacobson index parameters (paper defaults 16, 16).
  */
final case class StorageConfig(
    columnar: Boolean,
    newIds: Boolean,
    zeroSuppress: Boolean,
    nullCompress: Boolean,
    edgeColumns: Boolean = false,
    singleCardAsCsr: Boolean = false,
    pageK: Int = 128,
    c: Int = 16,
    m: Int = 16,
    nullThreshold: Double = 0.05
) extends Serializable {
  def name: String =
    if (!columnar) "GF-RV"
    else if (!newIds) "+COLS"
    else if (!zeroSuppress) "+NEW-IDS"
    else if (!nullCompress) "+0-SUPR"
    else "GF-CL"
}

object StorageConfig {
  /** Row storage + 8-byte IDs: the GF-RV baseline. */
  val GFRV: StorageConfig = StorageConfig(columnar = false, newIds = false, zeroSuppress = false, nullCompress = false)
  /** Step 1 of Table 2. */
  val COLS: StorageConfig = GFRV.copy(columnar = true)
  /** Step 2. */
  val NEWIDS: StorageConfig = COLS.copy(newIds = true)
  /** Step 3 (aka +OMIT / V-COL-UNC in Table 4). */
  val ZSUPR: StorageConfig = NEWIDS.copy(zeroSuppress = true)
  /** Step 4: the full columnar configuration (storage of GF-CL and GF-CV). */
  val GFCL: StorageConfig = ZSUPR.copy(nullCompress = true)

  val ladder: Seq[StorageConfig] = Seq(GFRV, COLS, NEWIDS, ZSUPR, GFCL)
}
