package repro.core

/** Storage configuration — a step of Table 2's optimization ladder plus
  * the micro-benchmark variants of Tables 3 and 4. Each step keeps the
  * optimizations of the steps before it:
  *
  *  - 0, GF-RV: interpreted-attribute-layout rows, 8-byte global edge IDs,
  *    all edges in CSRs.
  *  - 1, +COLS: vertex properties in vertex columns, edge properties in edge
  *    columns indexed by the same global edge IDs, single-cardinality
  *    edges (and their properties) in vertex columns.
  *  - 2, +NEW-IDS: (label, src vertex, page-level positional offset) edge IDs
  *    indexing single-indexed property pages; ID components factored out
  *    per the decision tree of Fig. 6.
  *  - 3, +0-SUPR: leading-0 suppression — minimal uniform byte widths for ID
  *    components, offsets and values.
  *  - 4, GF-CL (+NULL): Jacobson-indexed NULL compression of empty adjacency
  *    lists and sparse columns.
  *
  * @param step            index into [[StorageConfig.ladder]]
  * @param edgeColumns     Table 3 COL_E variant: edge IDs are a random
  *                        permutation (insertion order) and index edge
  *                        columns, instead of property pages.
  * @param singleCardAsCsr Table 4 CSR-* variant: store single-cardinality
  *                        edges in CSRs instead of vertex columns.
  */
final case class StorageConfig(
    step: Int,
    edgeColumns: Boolean = false,
    singleCardAsCsr: Boolean = false
) extends Serializable {
  require(step >= 0 && step < StorageConfig.stepNames.length, s"no ladder step $step")

  def name: String = StorageConfig.stepNames(step)
  def columnar: Boolean = step >= 1
  def newIds: Boolean = step >= 2
  def zeroSuppress: Boolean = step >= 3
  def nullCompress: Boolean = step >= 4
}

object StorageConfig {
  private val stepNames: IndexedSeq[String] = IndexedSeq("GF-RV", "+COLS", "+NEW-IDS", "+0-SUPR", "GF-CL")

  /** Row storage + 8-byte IDs: the GF-RV baseline. */
  val GFRV: StorageConfig = StorageConfig(0)
  /** Step 1 of Table 2. */
  val COLS: StorageConfig = StorageConfig(1)
  /** Step 2. */
  val NEWIDS: StorageConfig = StorageConfig(2)
  /** Step 3 (aka +OMIT / V-COL-UNC in Table 4). */
  val ZSUPR: StorageConfig = StorageConfig(3)
  /** Step 4: the full columnar configuration (storage of GF-CL and GF-CV). */
  val GFCL: StorageConfig = StorageConfig(4)

  val ladder: Seq[StorageConfig] = Seq(GFRV, COLS, NEWIDS, ZSUPR, GFCL)

  // The paper's layout constants (Table 7 varies c and m on
  // NullCompressedColumn / JacobsonIndex directly).
  /** Adjacency lists per property page, k (§4.2). */
  final val ListsPerPage = 128
  /** Jacobson index chunk and super-block parameters, c and m (§5.3). */
  final val RankC = 16
  final val RankM = 16
  /** NULL fraction above which a column or CSR offset level is
    * NULL-compressed (§5.3).
    */
  final val NullFraction = 0.05

  /** The one §5.3 threshold rule, for NULL column values and empty
    * adjacency lists alike: NULL-compress when more than `threshold` of the
    * `n` entries are NULL.
    */
  def aboveNullFraction(nulls: Int, n: Int, threshold: Double = NullFraction): Boolean =
    n > 0 && nulls.toDouble / n > threshold
}
