package repro.engine

import repro.{SparkSpec, TestFixtures}
import repro.core.{CollectedGraph, StorageConfig}
import repro.exp.MicroQueries
import repro.query.Query

/** Edge-property predicates on every store layout the loader builds: each
  * label's edge IDs and the property store they index are chosen together,
  * so every ladder step and variant answers as GF-RV does.
  */
class EdgeLayoutSpec extends SparkSpec {

  private val layouts: Seq[StorageConfig] = StorageConfig.ladder ++ Seq(
    StorageConfig.GFCL.copy(edgeColumns = true),
    StorageConfig.ZSUPR.copy(singleCardAsCsr = true))

  private def label(c: StorageConfig): String =
    c.name + (if (c.edgeColumns) " COL_E" else "") + (if (c.singleCardAsCsr) " CSR" else "")

  private val cutoff = 1_200_000_000L
  private val cases: Seq[(String, () => CollectedGraph, Query)] = Seq(
    ("social", () => TestFixtures.socialCollected,
      MicroQueries.khop("link", "node", 2, forward = true, Some(cutoff))),
    ("social", () => TestFixtures.socialCollected,
      MicroQueries.khop("link", "node", 2, forward = false, Some(cutoff))),
    ("ldbc", () => TestFixtures.ldbcCollected,
      MicroQueries.khop("knows", "person", 2, forward = true, Some(cutoff), propName = "creationDate")))

  for ((ds, collected, q) <- cases) {
    test(s"$ds ${q.name} edge predicate agrees with GF-RV on every store layout") {
      val g = collected()
      val expected = Volcano.count(TestFixtures.store(g, StorageConfig.GFRV), q)
      assert(expected > 0, s"${q.name} should match some edges at test scale")
      for (c <- layouts) {
        val store = TestFixtures.store(g, c)
        assert(Volcano.count(store, q) == expected, s"Volcano on ${label(c)}")
        if (c.columnar) assert(Lbp.count(store, q) == expected, s"LBP on ${label(c)}")
      }
    }
  }
}
