package repro.query

import repro.compress.Dictionary
import repro.core.{GraphStore, Values}
import repro.storage.{Adjacency, EdgeProps, PropertyStore, SingleAdjacency}

/** Read context handed to compiled predicates: engines expose the current
  * binding of each vertex slot (a positional offset) and each edge slot
  * (a property handle).
  */
trait ReadCtx {
  def v(slot: Int): Long
  def e(slot: Int): Long
}

/** An operand resolved against the store: which tuple slot it reads
  * (vertex offset or edge handle) and property `prop` of the store that
  * value indexes (a numeric or a dictionary code). `read` gives its value
  * for one tuple; LBP reads a block of handles at once (`gather`).
  */
final class OperandRef(val isEdge: Boolean, val slot: Int, props: PropertyStore, prop: Int)
    extends Serializable {
  def read(ctx: ReadCtx): Long = props.getLong((if (isEdge) ctx.e(slot) else ctx.v(slot)).toInt, prop)
  /** `out(i)` = the property at handle `handles(i)`, for i < n (`out` may be `handles`). */
  def gather(handles: Array[Long], n: Int, out: Array[Long]): Unit = props.gatherLong(prop, handles, n, out)
}

/** A predicate compiled once against one [[GraphStore]], in the one form
  * both processors use: Volcano calls `eval` per tuple; LBP gathers a
  * block of operand values and runs the same comparison with the block
  * primitives of [[CmpOp]] (paper §6.2, Filter), or calls `eval` once
  * when no operand is in the block's group. On columnar stores
  * string tests are translated to dictionary codes here, so no processor
  * decodes (§5.1).
  * NULL operands fail every predicate.
  */
sealed abstract class CompiledPred extends Serializable {
  def eval(ctx: ReadCtx): Boolean
}

/** `lhs op rhs`, or `lhs op const` when `rhs == null`: numeric comparisons,
  * and string equality on dictionary codes (`const` is -1 when the string
  * is not in the dictionary).
  */
final class CmpPred(val lhs: OperandRef, val op: CmpOp, val rhs: OperandRef,
                    val const: Long) extends CompiledPred {
  private val code = op.code
  def eval(ctx: ReadCtx): Boolean = {
    val a = lhs.read(ctx)
    val b = if (rhs == null) const else rhs.read(ctx)
    a != Values.Null && b != Values.Null && CmpOp.holds(code, a, b)
  }
}

/** Membership of a dictionary code in the sorted codes of the words that
  * pass a [[StrTest]] (IN / CONTAINS / STARTS WITH / string range).
  */
final class CodeSetPred(val lhs: OperandRef, val codes: Array[Long]) extends CompiledPred {
  def eval(ctx: ReadCtx): Boolean = {
    val x = lhs.read(ctx)
    x != Values.Null && java.util.Arrays.binarySearch(codes, x) >= 0
  }
}

/** A [[StrTest]] on decoded strings, per tuple — row storage only, where
  * strings are stored raw: the decode cost GF-RV pays.
  */
final class RowStrPred(isEdge: Boolean, slot: Int, props: PropertyStore, propIdx: Int,
                       test: String => Boolean) extends CompiledPred {
  def eval(ctx: ReadCtx): Boolean = {
    val x = props.getString((if (isEdge) ctx.e(slot) else ctx.v(slot)).toInt, propIdx)
    x != null && test(x)
  }
}

/** One step of the physical left-deep plan, shared by both processors. */
sealed trait PlanStep extends Serializable

final case class ScanStep(label: Int, vSlot: Int, preds: Array[CompiledPred]) extends PlanStep

/** Join step along one pattern edge.
  *
  * @param single   true when the traversal direction has single cardinality
  *                 and the store holds it as a vertex column (ColumnExtend)
  * @param eSlot    slot for the edge handle, -1 when no predicate needs it
  */
final case class ExtendStep(
    edgeLabel: Int,
    forward: Boolean,
    fromSlot: Int,
    toSlot: Int,
    eSlot: Int,
    adj: Adjacency,
    props: EdgeProps,
    single: Boolean,
    preds: Array[CompiledPred]
) extends PlanStep

final case class Plan(
    scan: ScanStep,
    extendSteps: Array[ExtendStep],
    numVSlots: Int,
    numESlots: Int
) extends Serializable

object Compiler {

  /** Compile a [[Query]] against a store into a physical plan. */
  def compile(q: Query, store: GraphStore): Plan = {
    val schema = store.schema
    val vSlot: Map[String, Int] = q.vars.map(_.name).zipWithIndex.toMap

    // Edge slots only for aliases referenced by predicates.
    val neededAliases: Set[String] =
      q.preds.flatMap(_.operands).collect { case EProp(a, _) => a }.toSet
    val eSlot: Map[String, Int] = neededAliases.toSeq.sorted.zipWithIndex.toMap

    val compiler = new PredCompiler(q, store, vSlot, eSlot)

    // Assign each predicate to the earliest step binding all its operands.
    var bound = Set(q.anchor)
    var boundEdges = Set.empty[String]
    def ready(p: Pred): Boolean = p.operands.forall {
      case VProp(v, _) => bound.contains(v)
      case EProp(a, _) => boundEdges.contains(a)
    }
    var remaining = q.preds.toList
    def takeReady(): Seq[Pred] = {
      val (now, later) = remaining.partition(ready)
      remaining = later
      now
    }

    val scanPreds = takeReady()
    val scanStep = ScanStep(schema.vertexIdx(q.varByName(q.anchor).label), vSlot(q.anchor),
      scanPreds.map(compiler.compile).toArray)

    val steps = q.joinOrder.map { ei =>
      val e = q.edges(ei)
      val forward = bound.contains(e.srcVar)
      val (fromVar, toVar) = if (forward) (e.srcVar, e.dstVar) else (e.dstVar, e.srcVar)
      require(!bound.contains(toVar), s"${q.name}: cyclic patterns not supported (var $toVar)")
      bound += toVar
      if (e.alias.nonEmpty) boundEdges += e.alias
      val el = schema.edgeIdx(e.label)
      val adj = store.adjacency(el, forward)
      val stepPreds = takeReady()
      ExtendStep(
        edgeLabel = el,
        forward = forward,
        fromSlot = vSlot(fromVar),
        toSlot = vSlot(toVar),
        eSlot = if (e.alias.nonEmpty) eSlot.getOrElse(e.alias, -1) else -1,
        adj = adj,
        props = store.edgeProps(el),
        single = adj.isInstanceOf[SingleAdjacency],
        preds = stepPreds.map(compiler.compile).toArray
      )
    }.toArray

    require(remaining.isEmpty, s"${q.name}: predicates never bound: $remaining")
    Plan(scanStep, steps, q.vars.length, eSlot.size)
  }
}

/** Compiles predicates of one query against one store. */
private final class PredCompiler(q: Query, store: GraphStore,
                                 vSlot: Map[String, Int], eSlot: Map[String, Int]) {
  private val schema = store.schema

  /** Resolve an operand to the property store its slot value indexes (a
    * vertex label's, or the one behind an edge label's handles) and the
    * property's index in it.
    */
  private def resolve(o: Operand): (PropertyStore, Int) = o match {
    case VProp(v, prop) =>
      val label = schema.vertexIdx(q.varByName(v).label)
      (store.vertexProps(label), schema.vertices(label).propIdx(prop))
    case EProp(a, prop) =>
      val el = schema.edgeIdx(q.edgeByAlias(a).label)
      (store.edgeProps(el).store, schema.edges(el).propIdx(prop))
  }

  private def slotOf(o: Operand): Int = if (o.isEdge) eSlot(o.varName) else vSlot(o.varName)

  private def ref(o: Operand): OperandRef = {
    val (props, pi) = resolve(o)
    new OperandRef(o.isEdge, slotOf(o), props, pi)
  }

  private def dictOf(o: Operand): Dictionary = {
    val (props, pi) = resolve(o)
    val d = props.dict(pi)
    require(d != null, s"${q.name}: string predicate on non-string property $o")
    d
  }

  def compile(p: Pred): CompiledPred = p match {
    case CmpConst(l, op, c) => new CmpPred(ref(l), op, null, c)
    case CmpProps(l, op, r) => new CmpPred(ref(l), op, ref(r), 0L)
    case StrPred(l, test) if !store.columnar =>
      val (props, pi) = resolve(l)
      new RowStrPred(l.isEdge, slotOf(l), props, pi, test.matches)
    case StrPred(l, test) =>
      // The constant side becomes one code or a sorted code set, once.
      val dict = dictOf(l)
      def code(s: String): Long = dict.encodeOpt(s).fold(-1L)(_.toLong)
      test match {
        case SEq(s) => new CmpPred(ref(l), EQ, null, code(s))
        case SNe(s) => new CmpPred(ref(l), NE, null, code(s))
        case _      => new CodeSetPred(ref(l), dict.codesWhere(test.matches).toArray.sorted)
      }
  }
}
