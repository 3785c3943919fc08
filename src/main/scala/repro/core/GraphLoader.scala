package repro.core

import org.apache.spark.sql.DataFrame
import repro.compress.Dictionary
import repro.storage._
import repro.util.ByteWidthArray

/** Vertex/edge tables of one dataset as Spark DataFrames.
  *
  * Vertex DataFrames carry a `vid` column (the positional offset, dense
  * [0, n)) plus the schema's property columns (LongType / StringType).
  * Edge DataFrames carry `src`, `dst` offsets plus edge property columns.
  */
final case class GraphData(
    schema: GraphSchema,
    vertices: Map[String, DataFrame],
    edges: Map[String, DataFrame]
)

/** One dataset collected off Spark into dense JVM arrays — the single
  * expensive collect is shared by every [[StorageConfig]] built from it
  * (Table 2 builds five configurations of the same data).
  */
final class CollectedGraph(
    val schema: GraphSchema,
    val vertexCounts: Array[Int],
    // per vertex label, per property: Array[Long] (numeric, Values.Null for
    // NULL) or Array[String] (null for NULL)
    val vertexProps: Array[Array[AnyRef]],
    val edgeSrc: Array[Array[Int]],
    val edgeDst: Array[Array[Int]],
    val edgeProps: Array[Array[AnyRef]]
) extends Serializable {
  def edgeCount(e: Int): Int = edgeSrc(e).length
}

object GraphLoader {

  /** Collect a dataset's DataFrames into dense arrays, keyed positionally. */
  def collect(data: GraphData): CollectedGraph = {
    val schema = data.schema
    val nv = schema.vertices.length
    val ne = schema.edges.length
    val vertexCounts = new Array[Int](nv)
    val vertexProps = new Array[Array[AnyRef]](nv)

    for (li <- 0 until nv) {
      val vdef = schema.vertices(li)
      val df = data.vertices(vdef.name)
      val rows = df.select("vid", vdef.props.map(_.name): _*).collect()
      val n = rows.length
      vertexCounts(li) = n
      val props = new Array[AnyRef](vdef.props.length)
      for (pi <- vdef.props.indices) props(pi) = vdef.props(pi).ptype match {
        case PLongT   => Array.fill[Long](n)(Values.Null)
        case PStringT => new Array[String](n)
      }
      rows.foreach { r =>
        val vid = r.getLong(0).toInt
        require(vid >= 0 && vid < n, s"vid $vid out of range for ${vdef.name}")
        for (pi <- vdef.props.indices) {
          val raw = r.get(pi + 1)
          if (raw != null) vdef.props(pi).ptype match {
            case PLongT   => props(pi).asInstanceOf[Array[Long]](vid) = raw.asInstanceOf[Long]
            case PStringT => props(pi).asInstanceOf[Array[String]](vid) = raw.asInstanceOf[String]
          }
        }
      }
      vertexProps(li) = props
    }

    val edgeSrc = new Array[Array[Int]](ne)
    val edgeDst = new Array[Array[Int]](ne)
    val edgeProps = new Array[Array[AnyRef]](ne)
    for (ei <- 0 until ne) {
      val edef = schema.edges(ei)
      val df = data.edges(edef.name)
      val cols = Seq("src", "dst") ++ edef.props.map(_.name)
      val rows = df.select(cols.head, cols.tail: _*).collect()
      val n = rows.length
      val src = new Array[Int](n)
      val dst = new Array[Int](n)
      val props = new Array[AnyRef](edef.props.length)
      for (pi <- edef.props.indices) props(pi) = edef.props(pi).ptype match {
        case PLongT   => Array.fill[Long](n)(Values.Null)
        case PStringT => new Array[String](n)
      }
      var i = 0
      rows.foreach { r =>
        src(i) = r.getLong(0).toInt
        dst(i) = r.getLong(1).toInt
        for (pi <- edef.props.indices) {
          val raw = r.get(pi + 2)
          if (raw != null) edef.props(pi).ptype match {
            case PLongT   => props(pi).asInstanceOf[Array[Long]](i) = raw.asInstanceOf[Long]
            case PStringT => props(pi).asInstanceOf[Array[String]](i) = raw.asInstanceOf[String]
          }
        }
        i += 1
      }
      edgeSrc(ei) = src; edgeDst(ei) = dst; edgeProps(ei) = props
    }
    new CollectedGraph(schema, vertexCounts, vertexProps, edgeSrc, edgeDst, edgeProps)
  }

  def load(data: GraphData, config: StorageConfig): GraphStore =
    build(collect(data), config)

  /** Assemble a [[GraphStore]] for one configuration. */
  def build(g: CollectedGraph, config: StorageConfig): GraphStore = {
    val schema = g.schema
    val nv = schema.vertices.length
    val ne = schema.edges.length

    // ---- vertex properties ----
    val vertexCols = if (config.columnar) new Array[ColumnSet](nv) else null
    val vertexRows = if (!config.columnar) new Array[RowStore](nv) else null
    for (li <- 0 until nv) {
      val vdef = schema.vertices(li)
      val n = g.vertexCounts(li)
      if (config.columnar) vertexCols(li) = buildColumnSet(vdef.props, g.vertexProps(li), n, config)
      else vertexRows(li) = buildRowStore(vdef.props, g.vertexProps(li), n)
    }

    // ---- edges ----
    val fwdAdj = new Array[Adjacency](ne)
    val bwdAdj = new Array[Adjacency](ne)
    val edgePropStores = new Array[EdgePropAccessor](ne)
    val edgeCounts = new Array[Int](ne)

    for (ei <- 0 until ne) {
      val edef = schema.edges(ei)
      val src = g.edgeSrc(ei)
      val dst = g.edgeDst(ei)
      val nE = src.length
      edgeCounts(ei) = nE
      val nSrc = g.vertexCounts(schema.srcLabelOf(ei))
      val nDst = g.vertexCounts(schema.dstLabelOf(ei))

      val fwdOrder = sortedOrder(src, nE)
      val bwdOrder = sortedOrder(dst, nE)
      val lensF = listLens(src, nSrc)

      val singleFwdAsCol = config.columnar && !config.singleCardAsCsr && edef.card.singleFwd
      val singleBwdAsCol = config.columnar && !config.singleCardAsCsr && edef.card.singleBwd

      // Global edge IDs: insertion order, or a random permutation of it for
      // Table 3's COL_E (neither direction then reads sequentially).
      lazy val randIds: Array[Long] = randomIds(nE, 0x5eed + ei)
      val globalId: Int => Long = if (config.edgeColumns) randIds(_) else _.toLong
      def propsByGlobalId: Array[AnyRef] =
        if (config.edgeColumns) scatterProps(edef.props, g.edgeProps(ei), nE, nE, randIds(_).toInt)
        else g.edgeProps(ei)

      def ownerColumns: EdgePropAccessor = {
        val ownerIsSrc = edef.card.singleFwd
        val nOwn = if (ownerIsSrc) nSrc else nDst
        val ownOf: Int => Int = if (ownerIsSrc) src(_) else dst(_)
        val scattered = scatterProps(edef.props, g.edgeProps(ei), nE, nOwn, ownOf)
        new VColOwnerEdgeProps(ownerIsSrc, buildColumnSet(edef.props, scattered, nOwn, config))
      }

      def propertyPages: EdgePropAccessor = {
        // Slot order == forward list order.
        val slotOf = new Array[Int](nE)
        var i = 0
        while (i < nE) { slotOf(fwdOrder(i)) = i; i += 1 }
        val scattered = scatterProps(edef.props, g.edgeProps(ei), nE, nE, slotOf(_))
        val bases = PropertyPages.buildBases(lensF, StorageConfig.ListsPerPage, suppress = config.zeroSuppress)
        new PropertyPages(StorageConfig.ListsPerPage, bases, buildColumnSet(edef.props, scattered, nE, config))
      }

      // The edge layout (paper §4.2, Fig. 6), decided once per label: the
      // value each edge's list entries store in both directions (null when
      // the decision tree factors it out) and the property store it indexes.
      // Old IDs index rows (GF-RV) or edge columns (+COLS, and COL_E at any
      // step); new IDs are page-level offsets into property pages, or are
      // omitted for property-less labels and owner-column properties.
      val (edgeVal, props): (Int => Long, EdgePropAccessor) =
        if (!config.columnar)
          // GF-RV: one interpreted-layout record (and pointer) per edge,
          // even for property-less labels.
          (globalId, new RowEdgeProps(buildRowStore(edef.props, propsByGlobalId, nE)))
        else if (!edef.hasProps || singleFwdAsCol || singleBwdAsCol)
          (if (config.newIds) null else globalId, if (edef.hasProps) ownerColumns else NoEdgeProps)
        else if (!config.newIds || config.edgeColumns)
          (globalId, new EdgeColumnStore(buildColumnSet(edef.props, propsByGlobalId, nE, config)))
        else { val pagePos = pagePositions(src, fwdOrder); (pagePos(_), propertyPages) }
      edgePropStores(ei) = props

      def buildCsr(order: Array[Int], lens: Array[Int], nbrOf: Int => Long, maxNbr: Long): CsrAdjacency = {
        val nbrs = new Array[Long](nE)
        var i = 0
        while (i < nE) { nbrs(i) = nbrOf(order(i)); i += 1 }
        val offsets = CsrAdjacency.buildOffsets(lens, suppress = config.zeroSuppress,
          nullCompress = config.nullCompress, threshold = StorageConfig.NullFraction,
          c = StorageConfig.RankC, m = StorageConfig.RankM)
        val vals = if (edgeVal == null) null else ByteWidthArray(order.map(edgeVal), config.zeroSuppress)
        new CsrAdjacency(offsets, ByteWidthArray.at(nbrs, ByteWidthArray.widthFor(maxNbr, config.zeroSuppress)), vals)
      }

      def buildSingle(nOwn: Int, ownOf: Int => Int, otherOf: Int => Long): SingleAdjacency = {
        val col = Array.fill[Long](nOwn)(Values.Null)
        var i = 0
        while (i < nE) {
          val o = ownOf(i)
          require(col(o) == Values.Null, s"${edef.name}: vertex $o violates single cardinality")
          col(o) = otherOf(i)
          i += 1
        }
        new SingleAdjacency(VColumn(col, suppress = config.zeroSuppress, nullCompress = config.nullCompress))
      }

      fwdAdj(ei) =
        if (singleFwdAsCol) buildSingle(nSrc, i => src(i), i => dst(i).toLong)
        else buildCsr(fwdOrder, lensF, e => dst(e).toLong, math.max(0, nDst - 1).toLong)
      bwdAdj(ei) =
        if (singleBwdAsCol) buildSingle(nDst, i => dst(i), i => src(i).toLong)
        else buildCsr(bwdOrder, listLens(dst, nDst), e => src(e).toLong, math.max(0, nSrc - 1).toLong)
    }

    new GraphStore(schema, config, g.vertexCounts.clone(), edgeCounts,
      vertexCols, vertexRows, fwdAdj, bwdAdj, edgePropStores)
  }

  // ---- helpers ----

  /** Page-level positional offsets, assigned in forward list order (paper
    * §4.2: properties of k consecutive vertices' lists per page).
    */
  private def pagePositions(src: Array[Int], fwdOrder: Array[Int]): Array[Long] = {
    val pagePos = new Array[Long](src.length)
    var curPage = -1
    var counter = 0L
    var i = 0
    while (i < fwdOrder.length) {
      val e = fwdOrder(i)
      val page = src(e) / StorageConfig.ListsPerPage
      if (page != curPage) { curPage = page; counter = 0L }
      pagePos(e) = counter
      counter += 1
      i += 1
    }
    pagePos
  }

  /** A seeded random permutation of [0, n) (Fisher-Yates). */
  private def randomIds(n: Int, seed: Long): Array[Long] = {
    val perm = Array.tabulate(n)(_.toLong)
    val rnd = new java.util.Random(seed)
    var j = n - 1
    while (j > 0) {
      val x = rnd.nextInt(j + 1)
      val t = perm(j); perm(j) = perm(x); perm(x) = t
      j -= 1
    }
    perm
  }

  /** Edge indices sorted by a key vertex (stable via index tie-break). */
  private def sortedOrder(key: Array[Int], nE: Int): Array[Int] = {
    val packed = new Array[Long](nE)
    var i = 0
    while (i < nE) { packed(i) = (key(i).toLong << 32) | i.toLong; i += 1 }
    java.util.Arrays.sort(packed)
    val order = new Array[Int](nE)
    i = 0
    while (i < nE) { order(i) = packed(i).toInt; i += 1 }
    order
  }

  private def listLens(key: Array[Int], n: Int): Array[Int] = {
    val lens = new Array[Int](n)
    var i = 0
    while (i < key.length) { lens(key(i)) += 1; i += 1 }
    lens
  }

  /** Re-index property arrays from edge-row order to a target domain. */
  private def scatterProps(defs: IndexedSeq[PropertyDef], props: Array[AnyRef],
                           nE: Int, nTarget: Int, targetOf: Int => Int): Array[AnyRef] = {
    defs.indices.map { pi =>
      defs(pi).ptype match {
        case PLongT =>
          val in = props(pi).asInstanceOf[Array[Long]]
          val out = Array.fill[Long](nTarget)(Values.Null)
          var i = 0
          while (i < nE) { out(targetOf(i)) = in(i); i += 1 }
          out: AnyRef
        case PStringT =>
          val in = props(pi).asInstanceOf[Array[String]]
          val out = new Array[String](nTarget)
          var i = 0
          while (i < nE) { out(targetOf(i)) = in(i); i += 1 }
          out: AnyRef
      }
    }.toArray
  }

  /** Build a dictionary-encoded, optionally compressed column set. */
  private def buildColumnSet(defs: IndexedSeq[PropertyDef], props: Array[AnyRef],
                             n: Int, config: StorageConfig): ColumnSet = {
    val cols = new Array[VColumn](defs.length)
    val dicts = new Array[Dictionary](defs.length)
    for (pi <- defs.indices) defs(pi).ptype match {
      case PLongT =>
        cols(pi) = VColumn(props(pi).asInstanceOf[Array[Long]],
          suppress = config.zeroSuppress, nullCompress = config.nullCompress)
      case PStringT =>
        val vals = props(pi).asInstanceOf[Array[String]]
        val dict = Dictionary.fromValues(vals.iterator)
        val codes = new Array[Long](n)
        var i = 0
        while (i < n) {
          codes(i) = if (vals(i) == null) Values.Null else dict.encode(vals(i)).toLong
          i += 1
        }
        // Dictionary codes are fixed-length by construction (§5.1), so the
        // code width applies even before the +0-SUPR step.
        cols(pi) = VColumn(codes, suppress = true, nullCompress = config.nullCompress,
          fixedWidth = dict.codeWidth)
        dicts(pi) = dict
    }
    new ColumnSet(cols, dicts)
  }

  /** Interpreted-attribute-layout store for one entity domain (GF-RV). */
  private def buildRowStore(defs: IndexedSeq[PropertyDef], props: Array[AnyRef], n: Int): RowStore = {
    // Per-property int-vs-long width, as GF-RV would pick per datatype.
    val asInt = defs.indices.map { pi =>
      defs(pi).ptype == PLongT && {
        val a = props(pi).asInstanceOf[Array[Long]]
        var max = 0L
        var i = 0
        while (i < a.length) { if (a(i) != Values.Null && a(i) > max) max = a(i); i += 1 }
        max <= Int.MaxValue
      }
    }
    val b = new RowStore.Builder(n)
    var v = 0
    while (v < n) {
      b.startRecord(v)
      for (pi <- defs.indices) defs(pi).ptype match {
        case PLongT =>
          val x = props(pi).asInstanceOf[Array[Long]](v)
          if (x != Values.Null) b.addLong(pi, x, asInt(pi))
        case PStringT =>
          val s = props(pi).asInstanceOf[Array[String]](v)
          if (s != null) b.addString(pi, s)
      }
      v += 1
    }
    b.result()
  }
}
