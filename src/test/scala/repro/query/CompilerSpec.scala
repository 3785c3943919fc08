package repro.query

import repro.{SparkSpec, TestFixtures}
import repro.core.StorageConfig
import repro.datasets.LdbcQueries

class CompilerSpec extends SparkSpec {

  private lazy val store = TestFixtures.ldbc.gfcl
  private lazy val queries = LdbcQueries.all(TestFixtures.NPersons)

  test("edge slots are allocated only for aliases used in predicates") {
    val ic05 = queries.find(_.name == "IC05").get
    val plan = Compiler.compile(ic05, store)
    assert(plan.numESlots == 1) // only hm is referenced
    val ic01 = queries.find(_.name == "IC01").get
    assert(Compiler.compile(ic01, store).numESlots == 0)
  }

  test("single-cardinality traversals compile to ColumnExtend steps") {
    val is01 = queries.find(_.name == "IS01").get
    val plan = Compiler.compile(is01, store)
    assert(plan.extendSteps.length == 1)
    assert(plan.extendSteps(0).single) // personIsLocatedIn is n-1, stored as v-column
  }

  test("the same traversal compiles to a CSR step under row storage") {
    val rv = TestFixtures.ldbc.gfrv
    val is01 = queries.find(_.name == "IS01").get
    assert(!Compiler.compile(is01, rv).extendSteps(0).single)
  }

  test("direction is inferred from bound variables") {
    val is02 = queries.find(_.name == "IS02").get
    val plan = Compiler.compile(is02, store)
    // hasCreator is traversed backwards (from the anchored person).
    assert(!plan.extendSteps(0).forward)
    assert(plan.extendSteps(1).forward)
  }

  test("predicates attach to the earliest step binding their operands") {
    val ic02 = queries.find(_.name == "IC02").get
    val plan = Compiler.compile(ic02, store)
    assert(plan.scan.preds.length == 1) // p.id anchor
    assert(plan.extendSteps(0).preds.isEmpty)
    assert(plan.extendSteps(1).preds.length == 1) // msg.creationDate
  }

  test("vectorized predicates exist on columnar stores only") {
    // String predicates compile to dictionary-code forms (which LBP runs in
    // block loops) on columnar stores, and to raw-string tests on GF-RV.
    def kindIs(t: StrTest) = Query("kind",
      vars = Seq(QVar("t", "title")), edges = Seq.empty,
      preds = Seq(StrPred(VProp("t", "kind"), t)), anchor = "t", joinOrder = Seq.empty)
    val tests = Seq(SEq("movie"), SNe("movie"), SIn(Set("movie", "short")),
      SContains("v"), SStartsWith("tv"), SCmp(LT, "movie"))
    for (t <- tests) {
      val cl = Compiler.compile(kindIs(t), TestFixtures.imdb.gfcl).scan.preds.head
      t match {
        case SEq(_) | SNe(_) => assert(cl.isInstanceOf[CmpPred], t)
        case _               => assert(cl.isInstanceOf[CodeSetPred], t)
      }
      assert(Compiler.compile(kindIs(t), TestFixtures.imdb.gfrv).scan.preds.head
        .isInstanceOf[RowStrPred], t)
    }
    // Numeric predicates have one form on every store.
    val ic02 = queries.find(_.name == "IC02").get
    for (s <- Seq(store, TestFixtures.ldbc.gfrv))
      assert(Compiler.compile(ic02, s).scan.preds.forall(_.isInstanceOf[CmpPred]))
  }

  test("cyclic patterns are rejected") {
    val cyc = Query("cyc",
      vars = Seq(QVar("a", "node"), QVar("b", "node")),
      edges = Seq(QEdge("link", "a", "b"), QEdge("link", "b", "a")),
      preds = Seq.empty, anchor = "a", joinOrder = Seq(0, 1))
    intercept[IllegalArgumentException] {
      Compiler.compile(cyc, TestFixtures.social.gfcl)
    }
  }

  test("disconnected join orders are rejected at query construction") {
    intercept[IllegalArgumentException] {
      Query("bad",
        vars = Seq(QVar("a", "node"), QVar("b", "node"), QVar("c", "node"), QVar("d", "node")),
        edges = Seq(QEdge("link", "a", "b"), QEdge("link", "c", "d")),
        preds = Seq.empty, anchor = "a", joinOrder = Seq(0, 1))
    }
  }

  test("every LDBC and JOB query compiles on every runnable config") {
    val stores = Seq(store, TestFixtures.ldbc.gfrv,
      TestFixtures.store(TestFixtures.ldbcCollected, StorageConfig.GFCL.copy(singleCardAsCsr = true)))
    for (q <- queries; s <- stores) Compiler.compile(q, s)
    val imdbStores = Seq(TestFixtures.imdb.gfcl, TestFixtures.imdb.gfrv)
    for (q <- repro.datasets.JobQueries.all; s <- imdbStores) Compiler.compile(q, s)
  }
}
