package repro.query

/** Translates a [[Query]] into SQL over the dataset's vertex/edge tables
  * (`v_<label>`(vid, props...), `e_<label>`(src, dst, props...)).
  *
  * Used three ways: (i) the DuckDB baseline (Vertica stand-in), (ii) the
  * Spark SQL baseline (MonetDB stand-in), and (iii) the correctness oracle
  * — all three see exactly the same relational form of the pattern, with
  * the RDBMS's own optimizer free to pick join order (as the paper lets
  * MonetDB/Vertica use their default, often bushy, plans).
  */
object SqlGen {

  def vertexTable(label: String): String = s"v_$label"
  def edgeTable(label: String): String = s"e_$label"

  private def lit(s: String): String = "'" + s.replace("'", "''") + "'"

  /** SQL count(*) for the pattern + predicates. */
  def countSql(q: Query): String = {
    // Bind each vertex variable to the first edge endpoint that produces it.
    var binding = Map.empty[String, String]
    val from = scala.collection.mutable.ArrayBuffer.empty[String]
    val where = scala.collection.mutable.ArrayBuffer.empty[String]

    q.joinOrder.zipWithIndex.foreach { case (ei, i) =>
      val e = q.edges(ei)
      val t = s"t$i"
      from += s"${edgeTable(e.label)} AS $t"
      Seq((e.srcVar, s"$t.src"), (e.dstVar, s"$t.dst")).foreach { case (v, col) =>
        binding.get(v) match {
          case Some(b) => where += s"$col = $b"
          case None    => binding += v -> col
        }
      }
    }

    // Vertex tables joined only when vertex properties are referenced. The
    // anchor's table leads the FROM list: Spark's rule-based join order
    // follows it, and with the anchor last a path query enumerates every
    // path of the graph before its selective anchor predicate applies.
    val varsWithProps = q.preds.flatMap(_.operands).collect { case VProp(v, _) => v }.distinct
    varsWithProps.foreach { v =>
      val alias = s"v_$v"
      val label = q.varByName(v).label
      val table = s"${vertexTable(label)} AS $alias"
      if (v == q.anchor) from.prepend(table) else from += table
      binding.get(v) match {
        case Some(b) => where += s"$alias.vid = $b"
        case None    => binding += v -> s"$alias.vid" // scan-only query
      }
    }
    if (from.isEmpty) {
      // Pure vertex scan with no predicates at all.
      from += s"${vertexTable(q.varByName(q.anchor).label)} AS v_${q.anchor}"
    }

    def operandSql(o: Operand): String = o match {
      case VProp(v, p) => s"v_$v.$p"
      case EProp(a, p) =>
        val ei = q.edges.indexWhere(_.alias == a)
        val i = q.joinOrder.indexOf(ei)
        s"t$i.$p"
    }

    q.preds.foreach {
      case CmpConst(l, op, c)  => where += s"${operandSql(l)} ${op.sql} $c"
      case CmpProps(l, op, r)  => where += s"${operandSql(l)} ${op.sql} ${operandSql(r)}"
      case StrPred(l, test) =>
        val col = operandSql(l)
        where += (test match {
          case SEq(s)         => s"$col = ${lit(s)}"
          case SNe(s)         => s"$col <> ${lit(s)}"
          case SIn(ss)        => s"$col IN (${ss.toSeq.sorted.map(lit).mkString(", ")})"
          case SContains(s)   => s"$col LIKE ${lit("%" + s + "%")}"
          case SStartsWith(s) => s"$col LIKE ${lit(s + "%")}"
          case SCmp(op, s)    => s"$col ${op.sql} ${lit(s)}"
        })
    }

    val whereClause = if (where.isEmpty) "" else " WHERE " + where.mkString(" AND ")
    s"SELECT count(*) AS cnt FROM ${from.mkString(", ")}$whereClause"
  }
}
