package repro.engine

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{SparkSpec, TestFixtures}
import repro.core.{CollectedGraph, GraphLoader, GraphStore, StorageConfig}
import repro.datasets.SocialGraph
import repro.query._
import repro.storage.{CompressedOffsets, CsrAdjacency}

/** LBP's counting tail (a last ListExtend without predicates sums list
  * lengths per input block) against Volcano, on random chain and star
  * patterns over every ladder step. The patterns vary the plan shapes
  * that decide whether the tail runs: a predicate on the last step or a
  * trailing ColumnExtend sends a plan down the per-list path instead.
  */
class CountTailSpec extends SparkSpec {
  import CountTailSpec._

  // A smaller link graph than the shared fixture, so that a 3-edge star
  // stays cheap for Volcano on five stores.
  private lazy val linkCollected = GraphLoader.collect(SocialGraph(spark, 300, avgDeg = 8, cap = 60, seed = 43))

  private val families = Seq(
    // The social graph has no single-cardinality label, so no trailing ColumnExtend.
    Family("link", () => linkCollected, "node", "link", Some("since"), "id", 300, None),
    Family("knows", () => TestFixtures.ldbcCollected, "person", "knows", Some("creationDate"),
      "birthday", 25000, Some("studyAt" -> "org")),
    // Backward replyOfComment lists are mostly empty, and NULL-compressed on GF-CL.
    Family("replyOfComment", () => TestFixtures.ldbcCollected, "comment", "replyOfComment", None,
      "length", 2000, Some("replyOfPost" -> "post")))

  private val storeCache = scala.collection.mutable.Map.empty[String, Seq[GraphStore]]
  private def storesOf(f: Family): Seq[GraphStore] =
    storeCache.getOrElseUpdate(f.name, StorageConfig.ladder.map(c => TestFixtures.store(f.collected(), c)))

  private val genCase: Gen[Case] = for {
    f <- Gen.oneOf(families)
    star <- Gen.oneOf(false, true)
    k <- if (star) Gen.choose(2, 3) else Gen.choose(1, 3)
    forward <- Gen.listOfN(k, Gen.oneOf(true, false))
    fromLeaf <- Gen.oneOf(false, true)
    scanPred <- Gen.option(Gen.choose(0L, f.vPropMax))
    lastPred <- Gen.frequency(2 -> Gen.const(None), 1 -> (for {
      onEdge <- if (f.eProp.isDefined) Gen.oneOf(true, false) else Gen.const(false)
      c <- if (onEdge) Gen.choose(1_000_000_000L, 1_400_000_000L) else Gen.choose(0L, f.vPropMax)
    } yield Some((onEdge, c))))
    columnTail <- Gen.frequency(2 -> false, 1 -> f.columnTail.isDefined)
    blockSize <- Gen.oneOf(1, 7, 1024)
  } yield Case(f, star, forward, fromLeaf && star, scanPred, lastPred, columnTail, blockSize)

  /** Whether LBP counts `q` in its tail rather than per list. */
  private def endsInTail(q: Query, store: GraphStore): Boolean = {
    val steps = Compiler.compile(q, store).extendSteps
    steps.nonEmpty && !steps.last.single && steps.last.preds.isEmpty
  }

  test("property: LBP's count equals Volcano's on every ladder step, with and without the counting tail") {
    var tails = 0
    var perList = 0
    val prop = Prop.forAll(genCase) { c =>
      val q = c.query
      val all = storesOf(c.family)
      val expected = Volcano.count(all.head, q)
      if (endsInTail(q, all.last)) tails += 1 else perList += 1
      // LBP runs on columnar stores only; GF-RV gives the reference count.
      val wrong = all.zip(StorageConfig.ladder).flatMap { case (store, config) =>
        val cv = Volcano.count(store, q)
        val cl = if (store.columnar) Lbp.count(store, Compiler.compile(q, store), c.blockSize) else expected
        if (cv == expected && cl == expected) None else Some(s"${config.name}: Volcano $cv, LBP $cl")
      }
      Prop(wrong.isEmpty) :| s"$c expects $expected: ${wrong.mkString("; ")}"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
    assert(tails > 0 && perList > 0, s"$tails plans ended in the tail, $perList did not")
  }

  test("GF-CL stores the backward replyOfComment lists with NULL-compressed offsets") {
    val store = storesOf(families.last).last
    val adj = store.adjacency(store.schema.edgeIdx("replyOfComment"), forward = false)
    assert(adj.asInstanceOf[CsrAdjacency].offsets.isInstanceOf[CompressedOffsets])
  }
}

object CountTailSpec {

  /** One edge label's patterns: the vertices it joins, the properties its
    * predicates read, and the single-cardinality label (with its target)
    * that can follow as a trailing ColumnExtend.
    */
  final case class Family(name: String, collected: () => CollectedGraph,
                          vLabel: String, eLabel: String, eProp: Option[String],
                          vProp: String, vPropMax: Long, columnTail: Option[(String, String)]) {
    override def toString: String = name
  }

  /** A pattern: `forward(i)` orients query edge i from the vertex bound
    * first to the new one; a star's edges all touch v0, and `fromLeaf`
    * anchors it at v1 instead of v0.
    */
  final case class Case(family: Family, star: Boolean, forward: Seq[Boolean], fromLeaf: Boolean,
                        scanPred: Option[Long], lastPred: Option[(Boolean, Long)],
                        columnTail: Boolean, blockSize: Int) {
    def query: Query = {
      val f = family
      val k = forward.length
      val vars = (0 to k).map(i => QVar(s"v$i", f.vLabel))
      // (bound, new) per edge, in join order.
      val ends = (0 until k).map { i =>
        if (!star) (s"v$i", s"v${i + 1}")
        else if (fromLeaf && i == 0) ("v1", "v0")
        else ("v0", s"v${i + 1}")
      }
      val edgePred = lastPred.exists(_._1)
      val edges = ends.zip(forward).zipWithIndex.map { case (((a, b), fwd), i) =>
        val alias = if (edgePred && i == k - 1) "eLast" else ""
        if (fwd) QEdge(f.eLabel, a, b, alias) else QEdge(f.eLabel, b, a, alias)
      }
      val anchor = ends.head._1
      val lastVar = ends.last._2
      val preds = scanPred.map(c => CmpConst(VProp(anchor, f.vProp), LT, c)).toSeq ++
        lastPred.map {
          case (true, c) => CmpConst(EProp("eLast", f.eProp.get), GT, c)
          case (false, c) => CmpConst(VProp(lastVar, f.vProp), GE, c)
        }
      val (tVars, tEdges) = f.columnTail.filter(_ => columnTail) match {
        case Some((label, target)) => (Seq(QVar("t", target)), Seq(QEdge(label, lastVar, "t")))
        case None => (Seq.empty, Seq.empty)
      }
      Query(s"${f.name}-${if (star) "star" else "chain"}", vars ++ tVars, edges ++ tEdges, preds,
        anchor = anchor, joinOrder = (edges ++ tEdges).indices)
    }
  }
}
