package repro.query

import repro.SparkSpec

class SqlGenSpec extends SparkSpec {

  private val q2hop = Query("q",
    vars = Seq(QVar("a", "node"), QVar("b", "node"), QVar("c", "node")),
    edges = Seq(QEdge("link", "a", "b", alias = "e0"), QEdge("link", "b", "c", alias = "e1")),
    preds = Seq(CmpProps(EProp("e1", "since"), GT, EProp("e0", "since"))),
    anchor = "a", joinOrder = Seq(0, 1))

  test("path query joins edge tables on shared endpoints") {
    val sql = SqlGen.countSql(q2hop)
    assert(sql.contains("FROM e_link AS t0, e_link AS t1"))
    assert(sql.contains("t1.src = t0.dst"))
    assert(sql.contains("t1.since > t0.since"))
    assert(sql.startsWith("SELECT count(*) AS cnt"))
  }

  test("vertex tables appear only when vertex predicates reference them") {
    val sql = SqlGen.countSql(q2hop)
    assert(!sql.contains("v_node"))
    val withPred = q2hop.copy(preds = q2hop.preds :+ CmpConst(VProp("c", "id"), LT, 5))
    val sql2 = SqlGen.countSql(withPred)
    assert(sql2.contains("v_node AS v_c") && sql2.contains("v_c.vid = t1.dst"))
  }

  test("the anchor's vertex table leads the FROM list") {
    val anchored = q2hop.copy(preds = Seq(
      CmpConst(VProp("c", "id"), LT, 5), CmpConst(VProp("a", "id"), EQ, 1)))
    val sql = SqlGen.countSql(anchored)
    assert(sql.contains("FROM v_node AS v_a, e_link AS t0, e_link AS t1, v_node AS v_c"))
    assert(sql.contains("v_a.vid = t0.src"))
  }

  test("string predicates translate to SQL operators") {
    def sqlFor(p: Pred) = SqlGen.countSql(Query("q",
      Seq(QVar("a", "title")), Seq.empty, Seq(p), "a", Seq.empty))
    assert(sqlFor(StrPred(VProp("a", "kind"), SEq("movie"))).contains("v_a.kind = 'movie'"))
    assert(sqlFor(StrPred(VProp("a", "kind"), SContains("ovi"))).contains("LIKE '%ovi%'"))
    assert(sqlFor(StrPred(VProp("a", "kind"), SStartsWith("mo"))).contains("LIKE 'mo%'"))
    assert(sqlFor(StrPred(VProp("a", "kind"), SIn(Set("b", "a")))).contains("IN ('a', 'b')"))
    assert(sqlFor(StrPred(VProp("a", "kind"), SCmp(GE, "m"))).contains(">= 'm'"))
    assert(sqlFor(StrPred(VProp("a", "kind"), SEq("o'brien"))).contains("'o''brien'"))
  }

  test("backward join order still binds endpoints consistently") {
    val bwd = q2hop.copy(anchor = "c", joinOrder = Seq(1, 0))
    val sql = SqlGen.countSql(bwd)
    // t0 is now edge 1 (c's edge), t1 is edge 0.
    assert(sql.contains("t1.dst = t0.src"))
  }

  test("star query emits one equality per shared endpoint") {
    val star = Query("s",
      vars = Seq(QVar("a", "node"), QVar("b", "node"), QVar("c", "node")),
      edges = Seq(QEdge("link", "a", "b"), QEdge("link", "a", "c")),
      preds = Seq.empty, anchor = "a", joinOrder = Seq(0, 1))
    assert(SqlGen.countSql(star).contains("t1.src = t0.src"))
  }
}
