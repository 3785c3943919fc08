package repro.engine

import repro.{SparkSpec, TestFixtures}
import repro.core.StorageConfig
import repro.query._

/** LBP's block primitives against Volcano's per-tuple reads, on the
  * selection-vector path: several predicates on one list group (so every
  * predicate after the first reads a selection vector), a comparison with
  * both operands in the active group, a dictionary code set, property-page
  * handles in both directions, and a ColumnExtend whose edge predicate
  * reads the owner's column, over an unflat and over a flattened group.
  */
class LbpBlockSpec extends SparkSpec {

  private val stores = Seq(StorageConfig.NEWIDS, StorageConfig.GFCL)

  /** p0 -knows(k)-> p1, then studyAt(s) from the list side's person. */
  private def knowsThenStudyAt(forward: Boolean, filtered: Boolean): Query = {
    val (anchor, listSide) = if (forward) ("p0", "p1") else ("p1", "p0")
    val preds =
      if (!filtered) Seq.empty
      // Each step's predicates run in this order, so every selection a
      // predicate writes is read by the next one, or by the ColumnExtend.
      else Seq(
        StrPred(VProp(listSide, "browserUsed"), SIn(Set("Firefox", "Chrome"))),
        CmpConst(EProp("k", "creationDate"), GT, 1_100_000_000L),
        CmpProps(EProp("k", "creationDate"), GT, VProp(listSide, "creationDate")),
        CmpConst(EProp("s", "classYear"), GT, 2000L),
        StrPred(VProp("o", "orgType"), SEq("university")),
        CmpConst(EProp("s", "classYear"), LT, 2015L))
    Query(s"knows-studyAt-${if (forward) "F" else "B"}${if (filtered) "-filter" else ""}",
      vars = Seq(QVar("p0", "person"), QVar("p1", "person"), QVar("o", "org")),
      edges = Seq(QEdge("knows", "p0", "p1", alias = "k"), QEdge("studyAt", listSide, "o", alias = "s")),
      preds = preds, anchor = anchor, joinOrder = Seq(0, 1))
  }

  for (forward <- Seq(true, false)) {
    val q = knowsThenStudyAt(forward, filtered = true)
    test(s"${q.name}: LBP equals Volcano with three predicates per group") {
      val all = Volcano.count(TestFixtures.ldbc.gfcl, knowsThenStudyAt(forward, filtered = false))
      for (config <- stores) {
        val store = TestFixtures.store(TestFixtures.ldbcCollected, config)
        val plan = Compiler.compile(q, store)
        assert(plan.extendSteps.map(_.single).toSeq == Seq(false, true), "ListExtend then ColumnExtend")
        assert(plan.extendSteps.map(_.preds.length).toSeq == Seq(3, 3))
        val expected = Volcano.count(store, plan)
        assert(expected > 0 && expected < all, s"${config.name}: $expected of $all should pass")
        assert(Lbp.count(store, plan) == expected, config.name)
      }
    }
  }

  test("ColumnExtend over the flattened scan group: LBP equals Volcano") {
    // p0 -knows-> p1 flattens p0's group, so the ColumnExtend from p0 takes
    // its flat path: s reads p0's column, o the neighbour it binds.
    def q(filtered: Boolean) = Query(s"knows-then-p0-studyAt${if (filtered) "-filter" else ""}",
      vars = Seq(QVar("p0", "person"), QVar("p1", "person"), QVar("o", "org")),
      edges = Seq(QEdge("knows", "p0", "p1"), QEdge("studyAt", "p0", "o", alias = "s")),
      preds = if (!filtered) Seq.empty
              else Seq(CmpConst(EProp("s", "classYear"), GT, 2000L), StrPred(VProp("o", "orgType"), SEq("university"))),
      anchor = "p0", joinOrder = Seq(0, 1))
    val all = Volcano.count(TestFixtures.ldbc.gfcl, q(filtered = false))
    for (config <- stores) {
      val store = TestFixtures.store(TestFixtures.ldbcCollected, config)
      val plan = Compiler.compile(q(filtered = true), store)
      assert(plan.extendSteps.map(_.single).toSeq == Seq(false, true), "ListExtend then ColumnExtend")
      assert(plan.extendSteps.map(_.fromSlot).toSeq == Seq(plan.scan.vSlot, plan.scan.vSlot), "both from the scan slot")
      assert(plan.extendSteps(1).preds.length == 2)
      val expected = Volcano.count(store, plan)
      assert(expected > 0 && expected < all, s"${config.name}: $expected of $all should pass")
      assert(Lbp.count(store, plan) == expected, config.name)
    }
  }

  test("2H-cross after a first predicate on the same group: LBP equals Volcano") {
    // The cross-edge comparison (flat and active operands; mirrored on the
    // backward plan) runs on the selection the first predicate left.
    for (fwd <- Seq(true, false)) {
      val base = repro.exp.MicroQueries.twoHopCrossPred("link", "node", "since", forward = fwd)
      val first = CmpConst(EProp(if (fwd) "e1" else "e0", "since"), LT, 1_300_000_000L)
      val q = base.copy(preds = first +: base.preds)
      for (config <- stores) {
        val store = TestFixtures.store(TestFixtures.socialCollected, config)
        val expected = Volcano.count(store, q)
        assert(expected > 0 && expected < Volcano.count(store, base), s"${q.name} on ${config.name}")
        assert(Lbp.count(store, q) == expected, s"${q.name} on ${config.name}")
      }
    }
  }
}
