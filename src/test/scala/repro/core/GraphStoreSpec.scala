package repro.core

import repro.{SparkSpec, TestFixtures}
import repro.storage.{CsrAdjacency, SingleAdjacency}

/** Loader/store round-trip invariants across the full configuration ladder,
  * on the tiny LDBC-lite dataset (edge properties on IMDb-lite too).
  */
class GraphStoreSpec extends SparkSpec {

  private lazy val g = TestFixtures.ldbcCollected
  private lazy val schema = g.schema

  private def forEachConfig(f: (StorageConfig, GraphStore) => Unit): Unit =
    StorageConfig.ladder.foreach(c => f(c, TestFixtures.store(g, c)))

  test("vertex properties round-trip on every config") {
    forEachConfig { (config, store) =>
      for (li <- schema.vertices.indices) {
        val vdef = schema.vertices(li)
        val n = g.vertexCounts(li)
        for (pi <- vdef.props.indices; v <- 0 until math.min(n, 300)) {
          vdef.props(pi).ptype match {
            case PLongT =>
              val expect = g.vertexProps(li)(pi).asInstanceOf[Array[Long]](v)
              assert(store.vertexLong(li, v, pi) == expect,
                s"${config.name} ${vdef.name}.${vdef.props(pi).name} at $v")
            case PStringT =>
              val expect = g.vertexProps(li)(pi).asInstanceOf[Array[String]](v)
              assert(store.vertexString(li, v, pi) == expect,
                s"${config.name} ${vdef.name}.${vdef.props(pi).name} at $v")
          }
        }
      }
    }
  }

  test("edge properties round-trip on every config") {
    val configs = StorageConfig.ladder ++ Seq(StorageConfig.GFCL.copy(edgeColumns = true),
      StorageConfig.ZSUPR.copy(singleCardAsCsr = true))
    def multiset[A](xs: Iterable[A]): Map[A, Int] = xs.groupBy(identity).map { case (k, v) => k -> v.size }
    for (cg <- Seq(g, TestFixtures.imdbCollected); config <- configs) {
      val store = TestFixtures.store(cg, config)
      for (ei <- cg.schema.edges.indices if cg.schema.edges(ei).hasProps) {
        val edef = cg.schema.edges(ei)
        val props = store.edgeProps(ei)
        // Each edge as (src, dst, its property values).
        val expected = multiset(cg.edgeSrc(ei).indices.map { i =>
          (cg.edgeSrc(ei)(i), cg.edgeDst(ei)(i), edef.props.indices.map { pi =>
            cg.edgeProps(ei)(pi) match {
              case a: Array[Long]   => a(i): Any
              case a: Array[String] => a(i)
            }
          })
        })
        for (forward <- Seq(true, false)) {
          val read = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Seq[Any])]
          def add(own: Int, nbr: Long, ev: Long): Unit = {
            val h = props.handle(own, nbr, ev, forward)
            val values = edef.props.indices.map { pi =>
              edef.props(pi).ptype match {
                case PLongT   => props.getLong(h, pi): Any
                case PStringT => props.getString(h, pi)
              }
            }
            read += (if (forward) (own, nbr.toInt, values) else (nbr.toInt, own, values))
          }
          store.adjacency(ei, forward) match {
            case csr: CsrAdjacency =>
              for (v <- 0 until csr.numVertices) {
                val s = csr.start(v)
                if (s >= 0) for (i <- s until csr.end(v)) add(v, csr.nbr(i), csr.edgeVal(i))
              }
            case single: SingleAdjacency =>
              for (v <- 0 until single.numVertices) {
                val nbr = single.nbr(v)
                if (nbr != Values.Null) add(v, nbr, 0L)
              }
          }
          assert(multiset(read) == expected, s"$config ${edef.name} forward=$forward")
        }
      }
    }
  }

  test("adjacency edge multiset matches input on every config and direction") {
    forEachConfig { (config, store) =>
      for (ei <- schema.edges.indices) {
        val expected = g.edgeSrc(ei).zip(g.edgeDst(ei)).toSeq.sorted
        for (forward <- Seq(true, false)) {
          val pairs = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
          store.adjacency(ei, forward) match {
            case csr: CsrAdjacency =>
              for (v <- 0 until csr.numVertices) {
                val s = csr.start(v)
                if (s >= 0) for (i <- s until csr.end(v)) {
                  val nbr = csr.nbr(i).toInt
                  pairs += (if (forward) (v, nbr) else (nbr, v))
                }
              }
            case single: SingleAdjacency =>
              for (v <- 0 until single.numVertices) {
                val nbr = single.nbr(v)
                if (nbr != Values.Null)
                  pairs += (if (forward) (v, nbr.toInt) else (nbr.toInt, v))
              }
          }
          assert(pairs.sorted == expected,
            s"${config.name} ${schema.edges(ei).name} forward=$forward")
        }
      }
    }
  }

  test("edge properties readable through forward and backward handles (GF-CL)") {
    val store = TestFixtures.store(g, StorageConfig.GFCL)
    val ei = schema.edgeIdx("knows")
    val props = store.edgeProps(ei)
    // Forward: property values in list order must be a permutation of input.
    val expected = g.edgeProps(ei)(0).asInstanceOf[Array[Long]].toSeq.sorted
    val fwd = store.adjacency(ei, forward = true).asInstanceOf[CsrAdjacency]
    val seen = scala.collection.mutable.ArrayBuffer.empty[Long]
    for (v <- 0 until fwd.numVertices) {
      val s = fwd.start(v)
      if (s >= 0) for (i <- s until fwd.end(v)) {
        seen += props.getLong(props.handle(v, fwd.nbr(i), fwd.edgeVal(i), forward = true), 0)
      }
    }
    assert(seen.sorted == expected)
    // Backward handles reach the same value for the same edge: check via
    // (src,dst,value) triple multisets.
    val bwd = store.adjacency(ei, forward = false).asInstanceOf[CsrAdjacency]
    val fwdTriples = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Long)]
    for (v <- 0 until fwd.numVertices) {
      val s = fwd.start(v)
      if (s >= 0) for (i <- s until fwd.end(v))
        fwdTriples += ((v, fwd.nbr(i).toInt,
          props.getLong(props.handle(v, fwd.nbr(i), fwd.edgeVal(i), forward = true), 0)))
    }
    val bwdTriples = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Long)]
    for (v <- 0 until bwd.numVertices) {
      val s = bwd.start(v)
      if (s >= 0) for (i <- s until bwd.end(v))
        bwdTriples += ((bwd.nbr(i).toInt, v,
          props.getLong(props.handle(v, bwd.nbr(i), bwd.edgeVal(i), forward = false), 0)))
    }
    assert(fwdTriples.sorted == bwdTriples.sorted)
  }

  test("single-cardinality edge properties via owner vertex columns (GF-CL)") {
    val store = TestFixtures.store(g, StorageConfig.GFCL)
    val ei = schema.edgeIdx("studyAt")
    assert(store.adjacency(ei, forward = true).isInstanceOf[SingleAdjacency])
    assert(store.adjacency(ei, forward = false).isInstanceOf[CsrAdjacency])
    val props = store.edgeProps(ei)
    val src = g.edgeSrc(ei); val dst = g.edgeDst(ei)
    val classYear = g.edgeProps(ei)(0).asInstanceOf[Array[Long]]
    src.indices.foreach { i =>
      val hFwd = props.handle(src(i), dst(i), 0L, forward = true)
      assert(props.getLong(hFwd, 0) == classYear(i), s"fwd edge $i")
      val hBwd = props.handle(dst(i), src(i), 0L, forward = false)
      assert(props.getLong(hBwd, 0) == classYear(i), s"bwd edge $i")
    }
  }

  test("memory decreases monotonically along the Table 2 ladder") {
    val sizes = StorageConfig.ladder.map(c => TestFixtures.store(g, c).totalBytes)
    sizes.sliding(2).foreach { case Seq(a, b) =>
      assert(b <= a, s"ladder not monotone: $sizes")
    }
    // And the end-to-end reduction is substantial (paper: 2.36x on LDBC100).
    assert(sizes.head.toDouble / sizes.last > 1.5, s"total reduction too small: $sizes")
  }

  test("edge-column variant (COL_E) reads the same properties as pages") {
    val pages = TestFixtures.store(g, StorageConfig.GFCL)
    val cols = TestFixtures.store(g, StorageConfig.GFCL.copy(edgeColumns = true))
    val ei = schema.edgeIdx("knows")
    val fp = pages.adjacency(ei, forward = true).asInstanceOf[CsrAdjacency]
    val fc = cols.adjacency(ei, forward = true).asInstanceOf[CsrAdjacency]
    val pp = pages.edgeProps(ei); val pc = cols.edgeProps(ei)
    for (v <- 0 until fp.numVertices) {
      val s = fp.start(v)
      if (s >= 0) for (i <- s until fp.end(v)) {
        val a = pp.getLong(pp.handle(v, fp.nbr(i), fp.edgeVal(i), forward = true), 0)
        val b = pc.getLong(pc.handle(v, fc.nbr(i), fc.edgeVal(i), forward = true), 0)
        assert(a == b, s"v=$v i=$i")
      }
    }
  }

  test("CSR variant for single-cardinality labels (Table 4 configs)") {
    val asCsr = TestFixtures.store(g, StorageConfig.GFCL.copy(singleCardAsCsr = true))
    val ei = schema.edgeIdx("replyOfComment")
    assert(asCsr.adjacency(ei, forward = true).isInstanceOf[CsrAdjacency])
    // Vertex-column storage is smaller than CSR for the same label (Table 4).
    val asCol = TestFixtures.store(g, StorageConfig.GFCL)
    assert(asCol.labelBytes(ei) < asCsr.labelBytes(ei))
  }
}
