package repro.query

import repro.core.Values

import scala.annotation.switch

/** Engine-neutral query model: a subgraph pattern (the joins), a
  * conjunction of predicates, and a manually chosen left-deep join order —
  * the paper hand-picks best left-deep plans for GF-RV/GF-CL (§8.7).
  */
final case class QVar(name: String, label: String)

/** A query edge `(srcVar)-[:label]->(dstVar)`; `alias` names the edge
  * variable when predicates reference its properties ("" otherwise).
  */
final case class QEdge(label: String, srcVar: String, dstVar: String, alias: String = "")

/** A comparison operator. `code` indexes the one comparison table,
  * [[CmpOp.holds]]; `flip` is the operator with its operands swapped
  * (`a < b` iff `b > a`).
  */
sealed abstract class CmpOp(val sql: String, val code: Int) {
  def flip: CmpOp
}
case object LT extends CmpOp("<", 0) { def flip: CmpOp = GT }
case object LE extends CmpOp("<=", 1) { def flip: CmpOp = GE }
case object GT extends CmpOp(">", 2) { def flip: CmpOp = LT }
case object GE extends CmpOp(">=", 3) { def flip: CmpOp = LE }
case object EQ extends CmpOp("=", 4) { def flip: CmpOp = EQ }
case object NE extends CmpOp("<>", 5) { def flip: CmpOp = NE }

object CmpOp {
  /** `a op b` for the operator with `code` — the comparison table every
    * processor and every predicate kind uses (LBP hoists `code` out of its
    * block loops; string comparisons pass `compareTo` against 0).
    */
  def holds(code: Int, a: Long, b: Long): Boolean = (code: @switch) match {
    case 0 => a < b
    case 1 => a <= b
    case 2 => a > b
    case 3 => a >= b
    case 4 => a == b
    case _ => a != b
  }

  // Selection primitives (MonetDB/X100-style): one tight loop per operator,
  // with the operator switch hoisted out of the loops. Value i is at
  // position pos(i), or at i when `pos` is null; the positions that pass
  // go to `out`, in order, and the count is returned. NULL fails every
  // comparison, as in `holds`. Each loop stores every position and advances
  // the output count by the test's outcome, with no branch on the data
  // (Ross, "Selection conditions in main memory", TODS 2004): `out` must
  // hold n entries, and may be `pos` (writes trail reads).

  @inline private def at(pos: Array[Int], i: Int): Int = if (pos == null) i else pos(i)
  @inline private def one(pass: Boolean): Int = if (pass) 1 else 0

  /** Positions of `xs(i) op b`, for i < n. */
  def select(code: Int, xs: Array[Long], n: Int, b: Long, pos: Array[Int], out: Array[Int]): Int = {
    if (b == Values.Null) return 0
    val Null = Values.Null
    var k = 0
    var i = 0
    (code: @switch) match {
      case 0 => while (i < n) { val x = xs(i); out(k) = at(pos, i); k += one((x != Null) & (x < b)); i += 1 }
      case 1 => while (i < n) { val x = xs(i); out(k) = at(pos, i); k += one((x != Null) & (x <= b)); i += 1 }
      case 2 => while (i < n) { val x = xs(i); out(k) = at(pos, i); k += one(x > b); i += 1 }
      case 3 => while (i < n) { val x = xs(i); out(k) = at(pos, i); k += one(x >= b); i += 1 }
      case 4 => while (i < n) { val x = xs(i); out(k) = at(pos, i); k += one(x == b); i += 1 }
      case _ => while (i < n) { val x = xs(i); out(k) = at(pos, i); k += one((x != Null) & (x != b)); i += 1 }
    }
    k
  }

  /** Positions of `xs(i) op ys(i)`, for i < n (both operands per position). */
  def selectPairs(code: Int, xs: Array[Long], ys: Array[Long], n: Int,
                  pos: Array[Int], out: Array[Int]): Int = {
    val Null = Values.Null
    var k = 0
    var i = 0
    while (i < n) {
      val x = xs(i)
      val y = ys(i)
      out(k) = at(pos, i)
      k += one((x != Null) & (y != Null) && holds(code, x, y))
      i += 1
    }
    k
  }

  /** Positions of the `xs(i)` found in the sorted `codes`, for i < n. */
  def selectIn(codes: Array[Long], xs: Array[Long], n: Int, pos: Array[Int], out: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < n) {
      val x = xs(i)
      out(k) = at(pos, i)
      k += one(x != Values.Null && java.util.Arrays.binarySearch(codes, x) >= 0)
      i += 1
    }
    k
  }
}

/** A property reference: vertex variable + property, or edge alias +
  * property.
  */
sealed trait Operand {
  def varName: String
  def prop: String
  def isEdge: Boolean
}
final case class VProp(varName: String, prop: String) extends Operand { val isEdge = false }
final case class EProp(varName: String, prop: String) extends Operand { val isEdge = true }

sealed trait Pred {
  def operands: Seq[Operand]
}
/** Numeric comparison against a constant. */
final case class CmpConst(l: Operand, op: CmpOp, c: Long) extends Pred {
  def operands: Seq[Operand] = Seq(l)
}
/** Numeric comparison between two properties (e.g. e2.date > e1.date). */
final case class CmpProps(l: Operand, op: CmpOp, r: Operand) extends Pred {
  def operands: Seq[Operand] = Seq(l, r)
}
sealed trait StrTest {
  /** The test on one non-NULL string — the single string semantics. Row
    * storage applies it per tuple; columnar stores apply it once per
    * dictionary word to get the matching codes.
    */
  def matches: String => Boolean = this match {
    case SEq(s)         => _ == s
    case SNe(s)         => _ != s
    case SIn(ss)        => ss.contains
    case SContains(s)   => _.contains(s)
    case SStartsWith(s) => _.startsWith(s)
    case SCmp(op, s)    => val code = op.code; w => CmpOp.holds(code, w.compareTo(s), 0)
  }
}
final case class SEq(s: String) extends StrTest
final case class SNe(s: String) extends StrTest
final case class SIn(ss: Set[String]) extends StrTest
final case class SContains(s: String) extends StrTest
final case class SStartsWith(s: String) extends StrTest
final case class SCmp(op: CmpOp, s: String) extends StrTest

/** String predicate; NULL fails every test. On columnar stores it is
  * evaluated purely on dictionary codes (the constant side is translated
  * once per query).
  */
final case class StrPred(l: Operand, test: StrTest) extends Pred {
  def operands: Seq[Operand] = Seq(l)
}

/** @param name      query identifier (e.g. "IC05", "JOB-12a")
  * @param vars      vertex variables with their (fixed) labels
  * @param edges     the pattern's edges
  * @param preds     conjunctive predicates
  * @param anchor    the scan variable of the left-deep plan
  * @param joinOrder indices into `edges`, the manual join order; each edge
  *                  must touch an already-bound variable (tree patterns)
  */
final case class Query(
    name: String,
    vars: Seq[QVar],
    edges: Seq[QEdge],
    preds: Seq[Pred],
    anchor: String,
    joinOrder: Seq[Int]
) {
  require(joinOrder.sorted == edges.indices.sorted, s"$name: join order must cover all edges")
  val varByName: Map[String, QVar] = vars.map(v => v.name -> v).toMap
  require(varByName.contains(anchor), s"$name: unknown anchor $anchor")
  require(edges.forall(e => varByName.contains(e.srcVar) && varByName.contains(e.dstVar)),
    s"$name: edge references unknown var")

  def edgeByAlias(alias: String): QEdge = {
    val e = edges.find(_.alias == alias)
    require(e.isDefined, s"$name: unknown edge alias $alias")
    e.get
  }

  /** Validate the join order is a connected left-deep tree from the anchor. */
  def validateOrder(): Unit = {
    var bound = Set(anchor)
    joinOrder.foreach { ei =>
      val e = edges(ei)
      require(bound.contains(e.srcVar) || bound.contains(e.dstVar),
        s"$name: edge $ei (${e.srcVar}->${e.dstVar}) not connected to bound vars $bound")
      bound = bound + e.srcVar + e.dstVar
    }
    require(vars.forall(v => bound.contains(v.name)), s"$name: unbound vars")
  }
  validateOrder()
}
