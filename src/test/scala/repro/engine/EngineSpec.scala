package repro.engine

import repro.{SparkSpec, TestFixtures}
import repro.query._

/** Micro k-hop queries (the paper's Table 3/4/5 workloads) cross-checked on
  * all five systems, plus LBP-specific semantics checks.
  */
class EngineSpec extends SparkSpec {

  import repro.exp.MicroQueries

  for (hops <- 1 to 3; filtered <- Seq(false, true)) {
    test(s"social ${hops}-hop filtered=$filtered agrees across all systems") {
      val q = MicroQueries.khop("link", "node", hops, forward = true,
        filtered = if (filtered) Some(1_200_000_000L) else None)
      val c = TestFixtures.checkAllSystems(TestFixtures.social, q)
      assert(c > 0, s"${q.name} count should be positive at test scale")
    }
  }

  for (hops <- 1 to 2) {
    test(s"social ${hops}-hop backward plan agrees across all systems") {
      val q = MicroQueries.khop("link", "node", hops, forward = false,
        filtered = Some(1_200_000_000L))
      TestFixtures.checkAllSystems(TestFixtures.social, q)
    }
  }

  test("2-hop with cross-edge predicate (e2.since > e1.since) agrees") {
    // The backward plan binds e1 first and flattens it when extending to
    // e0, so LBP runs the mirrored comparison: flat lhs, active rhs.
    val counts = Seq(true, false).map { fwd =>
      val q = MicroQueries.twoHopCrossPred("link", "node", "since", forward = fwd)
      TestFixtures.checkAllSystems(TestFixtures.social, q)
    }
    assert(counts.head > 0)
    assert(counts.distinct.size == 1, s"forward and backward plans disagree: $counts")
  }

  for (hops <- 1 to 3) {
    test(s"replyOf ${hops}-hop (single-cardinality chain) agrees across systems") {
      val q = MicroQueries.khop("replyOfComment", "comment", hops, forward = true, filtered = None)
      TestFixtures.checkAllSystems(TestFixtures.ldbc, q)
    }
  }

  test("LBP equals Volcano on the single-cardinality CSR variant (Table 4)") {
    val csrStore = TestFixtures.store(TestFixtures.ldbcCollected,
      repro.core.StorageConfig.GFCL.copy(singleCardAsCsr = true))
    val q = MicroQueries.khop("replyOfComment", "comment", 2, forward = true, filtered = None)
    assert(Lbp.count(csrStore, q) == Volcano.count(csrStore, q))
    assert(Lbp.count(csrStore, q) == Lbp.count(TestFixtures.ldbc.gfcl, q))
  }

  test("LBP equals Volcano on the edge-column variant (Table 3)") {
    val colStore = TestFixtures.store(TestFixtures.socialCollected,
      repro.core.StorageConfig.GFCL.copy(edgeColumns = true))
    for (fwd <- Seq(true, false)) {
      val q = MicroQueries.khop("link", "node", 2, forward = fwd, filtered = Some(1_200_000_000L))
      assert(Lbp.count(colStore, q) == Volcano.count(colStore, q), s"fwd=$fwd")
      assert(Lbp.count(colStore, q) ==
        Lbp.count(TestFixtures.social.gfcl, q), s"fwd=$fwd vs pages")
    }
  }

  // studyAt is n-1: its properties live in person (owner) vertex columns.
  for ((fwd, path) <- Seq(true -> "person->org (ColumnExtend)", false -> "org->person (list direction)")) {
    test(s"owner-column edge predicate studyAt.classYear, $path, agrees across systems") {
      val q = Query(s"studyAt-classYear-${if (fwd) "F" else "B"}",
        vars = Seq(QVar("p", "person"), QVar("o", "org")),
        edges = Seq(QEdge("studyAt", "p", "o", alias = "s")),
        preds = Seq(CmpConst(EProp("s", "classYear"), GT, 2005)),
        anchor = if (fwd) "p" else "o", joinOrder = Seq(0))
      assert(TestFixtures.checkAllSystems(TestFixtures.ldbc, q) > 0)
    }
  }

  test("scan-only plan (no edges) agrees") {
    val q = Query("scan-only",
      vars = Seq(QVar("a", "node")),
      edges = Seq.empty,
      preds = Seq(CmpConst(VProp("a", "id"), LT, 100)),
      anchor = "a", joinOrder = Seq.empty)
    assert(TestFixtures.checkAllSystems(TestFixtures.social, q) == 100)
  }

  test("star pattern keeps multiple groups unflat and counts correctly") {
    // a -> b, a -> c: count = sum over a of deg(a)^2.
    val q = Query("star2",
      vars = Seq(QVar("a", "node"), QVar("b", "node"), QVar("c", "node")),
      edges = Seq(QEdge("link", "a", "b"), QEdge("link", "a", "c")),
      preds = Seq.empty, anchor = "a", joinOrder = Seq(0, 1))
    TestFixtures.checkAllSystems(TestFixtures.social, q)
  }

  test("empty result when predicate matches nothing") {
    val q = MicroQueries.khop("link", "node", 1, forward = true, filtered = Some(Long.MaxValue / 2))
    assert(TestFixtures.checkAllSystems(TestFixtures.social, q) == 0)
  }

  test("block size does not affect LBP results") {
    val q = MicroQueries.khop("link", "node", 2, forward = true, filtered = Some(1_200_000_000L))
    val plan = Compiler.compile(q, TestFixtures.social.gfcl)
    val expected = Lbp.count(TestFixtures.social.gfcl, plan)
    for (bs <- Seq(1, 7, 64, 4096))
      assert(Lbp.count(TestFixtures.social.gfcl, plan, blockSize = bs) == expected, s"bs=$bs")
  }
}
