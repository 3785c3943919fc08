package repro.datasets

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core._
import repro.datasets.GenUtil.{Domain, Longs, Words}
import repro.query._

/** JOB/IMDb-shaped synthetic dataset (paper §8.1 substitution).
  *
  * Mirrors the property-graph conversion the paper performs on IMDb:
  * entity tables become vertex labels, relationship tables become n-n
  * edges with (string-heavy, NULL-heavy) properties, and foreign keys
  * become 1-n edges. All 33 JOB query shapes run against it.
  *
  * Every property draws from one value domain, declared in [[domains]].
  * The random tables draw each property independently and uniformly, so
  * JOB's selective conjunctions would mostly be empty. Real IMDb answers
  * every JOB query, so after the random rows each table gets the rows of
  * one witness per query in [[JobQueries.all]] ([[witnesses]]): a fresh
  * vertex per query variable, an edge per query edge, and for each property
  * the first domain value that passes every predicate on it. Every JOB
  * query thus returns at least one row at any scale. The data depend only
  * on (scale, seed), see [[GenUtil]].
  */
object ImdbLite {

  private def P(name: String, t: PType = PLongT) = PropertyDef(name, t)

  val schema: GraphSchema = GraphSchema(
    vertices = IndexedSeq(
      VertexDef("title", IndexedSeq(
        P("kind", PStringT), P("production_year"), P("episode_nr"), P("title", PStringT))),
      VertexDef("name", IndexedSeq(
        P("name", PStringT), P("gender", PStringT), P("name_pcode_cf", PStringT))),
      VertexDef("company_name", IndexedSeq(P("name", PStringT), P("country_code", PStringT))),
      VertexDef("keyword", IndexedSeq(P("keyword", PStringT))),
      VertexDef("movie_info", IndexedSeq(
        P("info_type", PStringT), P("info", PStringT), P("note", PStringT))),
      VertexDef("mov_info_2", IndexedSeq(P("info_type", PStringT), P("info", PStringT))),
      VertexDef("person_info", IndexedSeq(P("info_type", PStringT), P("note", PStringT))),
      VertexDef("aka_name", IndexedSeq(P("name", PStringT))),
      VertexDef("complete_cast", IndexedSeq(P("subject", PStringT), P("status", PStringT)))
    ),
    edges = IndexedSeq(
      EdgeDef("movie_companies", "title", "company_name", NN, IndexedSeq(
        P("company_type", PStringT), P("note", PStringT))),
      EdgeDef("cast_info", "title", "name", NN, IndexedSeq(
        P("note", PStringT), P("role", PStringT), P("pname", PStringT), P("nr_order"))),
      EdgeDef("movie_keyword", "title", "keyword", NN, IndexedSeq.empty),
      EdgeDef("movie_link", "title", "title", NN, IndexedSeq(P("link_type", PStringT))),
      EdgeDef("has_movie_info", "title", "movie_info", OneN, IndexedSeq.empty),
      EdgeDef("has_mov_info_2", "title", "mov_info_2", OneN, IndexedSeq.empty),
      EdgeDef("has_person_info", "name", "person_info", OneN, IndexedSeq.empty),
      EdgeDef("has_aka_name", "name", "aka_name", OneN, IndexedSeq.empty),
      EdgeDef("has_complete_cast", "title", "complete_cast", OneN, IndexedSeq.empty)
    )
  )

  // Dictionary domains; every JOB predicate constant resolves here.
  val kinds = Seq("movie", "tv series", "video", "episode", "video game", "tv movie", "short")
  val personNames: Seq[String] =
    Seq("Robert Downey Jr.", "Angela Smith", "Angelina Ford", "Tony Stark", "Tim Burton",
      "Timothy Green", "Queen Latifah", "Yoko Ono", "Anthony Yo", "Anna Lee", "Brian May",
      "Bela Tarr", "Boris Karloff", "Superman") ++
      (0 until 300).map(i => f"person$i%03d surname$i%03d")
  val companyNames: Seq[String] =
    Seq("Warner Film Studio", "Universal Film", "Nordisk Film", "Polar Film GmbH",
      "Shochiku Films", "Mosfilm") ++ (0 until 200).map(i => f"company$i%03d")
  val countryCodes = Seq("[us]", "[de]", "[jp]", "[ru]", "[pl]", "[se]", "[fr]", "[gb]", "[it]", "[in]")
  val keywords: Seq[String] =
    Seq("sequel", "character-name-in-title", "marvel-cinematic-universe", "superhero",
      "murder", "hero", "computer-animation", "based-on-novel", "revenge", "love") ++
      (0 until 150).map(i => f"kw$i%03d")
  val infoTypes = Seq("release dates", "genres", "countries", "budget")
  val mii2Types = Seq("rating", "votes", "top 250 rank", "bottom 10 rank")
  val infos: Seq[String] =
    Seq("Sweden", "Germany", "USA", "Drama", "Horror", "Comedy", "Thriller",
      "USA: January 2005", "USA: internet release 2009", "Japan: June 2001",
      "Japan: May 2008", "Germany: 2003") ++ (0 until 60).map(i => f"info$i%03d")
  val miNotes = Seq("(internet premiere)", "(theatrical)", "(dvd)", "(tv)")
  val mcNotes: Seq[String] =
    Seq("(co-production)", "(theatrical) (France)", "(theatrical) (USA)", "(worldwide) (2005)",
      "(worldwide) (200x)", "(Japan) (theatrical)", "(USA) (video)", "(2006) (USA)",
      "(presents)", "(in association with)")
  val ciNotes: Seq[String] =
    Seq("(voice)", "(voice: English version)", "(uncredited)", "(voice) (uncredited)",
      "(archive footage)", "(as himself)")
  val roles = Seq("actor", "actress", "producer", "director", "writer")
  val linkTypes = Seq("follows", "followedBy", "features", "references", "remake of")
  val pcodes = ('A' to 'Z').map(c => s"${c}123")
  val ratings: Seq[String] = (10 to 99).map(r => s"${r / 10}.${r % 10}")
  val piTypes = Seq("mini biography", "trivia", "quotes")
  val piNotes = Seq("Volker Boehm", "Pete Ross", "Anonymous") ++ (0 until 30).map(i => f"editor$i%02d")
  val ccSubjects = Seq("cast", "crew")
  val ccStatuses = Seq("complete", "complete+verified", "partial")
  val titles: Seq[String] = Seq("Shrek 2", "The Follow-Up", "Dark Horizon") ++
    (0 until 500).map(i => f"title$i%04d")

  /** The value domain of every property, keyed by (label, property). */
  val domains: Map[(String, String), Domain] = Map(
    ("title", "kind") -> Words(kinds),
    ("title", "production_year") -> Longs(1930, 2016, nullFrac = 0.1),
    ("title", "episode_nr") -> Longs(1, 200, nullFrac = 0.7),
    ("title", "title") -> Words(titles),
    ("name", "name") -> Words(personNames),
    ("name", "gender") -> Words(Seq("m", "f"), nullFrac = 0.2),
    ("name", "name_pcode_cf") -> Words(pcodes, nullFrac = 0.1),
    ("company_name", "name") -> Words(companyNames),
    ("company_name", "country_code") -> Words(countryCodes),
    ("keyword", "keyword") -> Words(keywords),
    ("movie_info", "info_type") -> Words(infoTypes),
    ("movie_info", "info") -> Words(infos),
    ("movie_info", "note") -> Words(miNotes, nullFrac = 0.6),
    ("mov_info_2", "info_type") -> Words(mii2Types),
    ("mov_info_2", "info") -> Words(ratings),
    ("person_info", "info_type") -> Words(piTypes),
    ("person_info", "note") -> Words(piNotes, nullFrac = 0.5),
    ("aka_name", "name") -> Words(personNames),
    ("complete_cast", "subject") -> Words(ccSubjects),
    ("complete_cast", "status") -> Words(ccStatuses),
    // Relationship (n-n) edges with NULL-heavy string properties: 4 of 7
    // edge properties here are at least 50 % NULL, like IMDb's edge tables.
    ("movie_companies", "company_type") -> Words(Seq("production company", "distributors")),
    ("movie_companies", "note") -> Words(mcNotes, nullFrac = 0.5),
    ("cast_info", "note") -> Words(ciNotes, nullFrac = 0.6),
    ("cast_info", "role") -> Words(roles, nullFrac = 0.1),
    ("cast_info", "pname") -> Words(personNames, nullFrac = 0.55),
    ("cast_info", "nr_order") -> Longs(1, 100, nullFrac = 0.6),
    ("movie_link", "link_type") -> Words(linkTypes))

  /** Random rows of each vertex label at `nTitles` titles. */
  def sizes(nTitles: Long): Map[String, Long] = {
    val nT = nTitles
    val nN = nT * 5 / 3
    Map("title" -> nT, "name" -> nN, "company_name" -> math.max(50L, nT / 15),
      "keyword" -> math.max(50L, nT / 15), "movie_info" -> nT * 3, "mov_info_2" -> nT * 2,
      "person_info" -> nN * 3 / 4, "aka_name" -> nN * 3 / 5, "complete_cast" -> nT / 2)
  }

  /** (average, cap) of each n-n label's capped-Pareto out-degree; the 1-n
    * labels are foreign keys, one parent per child row.
    */
  private val degrees: Map[String, (Double, Int)] = Map(
    "movie_companies" -> (2.5, 12), "cast_info" -> (10.0, 60),
    "movie_keyword" -> (4.0, 20), "movie_link" -> (1.2, 8))

  def apply(spark: SparkSession, nTitles: Long, seed: Long = 11): GraphData = {
    import spark.implicits._
    val n = sizes(nTitles)
    val planted = witnesses(JobQueries.all, n)

    // The random rows of a table, then its witness rows in one partition
    // (a local relation spreads over up to four, and each is one more task
    // in every job that reads the table).
    def withWitnesses(table: String, df: DataFrame): DataFrame = {
      val local = planted.getOrElse(table, Nil).map(r => Row.fromSeq(df.columns.toSeq.map(r)))
      df.union(spark.createDataFrame(local.asJava, df.schema).coalesce(1))
    }
    // Column seeds run in schema order: vertex properties from seed + 1,
    // edge structures and their properties from seed + 30.
    val vSeeds = schema.vertices.scanLeft(seed + 1)(_ + _.props.size)
    val eSeeds = schema.edges.scanLeft(seed + 30)(_ + 1 + _.props.size)

    val vertices = schema.vertices.zip(vSeeds).map { case (v, s) =>
      val props = v.props.zipWithIndex.map { case (p, i) =>
        domains((v.name, p.name)).column(s + i) as p.name
      }
      v.name -> withWitnesses(v.name,
        GenUtil.range(spark, n(v.name)).select(($"id" as "vid") +: props: _*))
    }
    val edges = schema.edges.zip(eSeeds).map { case (e, s) =>
      val structure =
        if (e.card == NN) {
          val (avgDeg, cap) = degrees(e.name)
          GenUtil.nnEdges(spark, n(e.src), n(e.dst), avgDeg, cap, s)
        } else GenUtil.oneNEdges(spark, n(e.dst), n(e.src), s)
      val props = e.props.zipWithIndex.map { case (p, i) =>
        domains((e.name, p.name)).column(s + 1 + i) as p.name
      }
      e.name -> withWitnesses(e.name, structure.select(($"src" +: $"dst" +: props): _*))
    }
    GraphData(schema, vertices.toMap, edges.toMap)
  }

  /** The rows of one witness per query, per table, as column -> value.
    * Vertex ids follow the `sizes` random rows of each label; every witness
    * vertex is fresh, so 1-n labels keep one parent per child.
    *
    * @throws IllegalStateException where no value of a property's domain
    *         passes every predicate the query puts on it
    */
  def witnesses(queries: Seq[Query], sizes: Map[String, Long]): Map[String, Seq[Map[String, Any]]] = {
    val nextVid = mutable.Map(sizes.toSeq: _*)
    val rows = mutable.Map.empty[String, mutable.ArrayBuffer[Map[String, Any]]]
    def add(table: String, row: Map[String, Any]): Unit =
      rows.getOrElseUpdate(table, mutable.ArrayBuffer.empty) += row

    for (q <- queries) {
      // Each property of `label` bound to variable or alias `name`.
      def values(label: String, name: String, isEdge: Boolean,
                 props: Seq[PropertyDef]): Map[String, Any] = props.map { p =>
        val preds = q.preds.filter(_.operands.exists(o =>
          o.varName == name && o.isEdge == isEdge && o.prop == p.name))
        val value = domains((label, p.name)).values.find(x => preds.forall(passes(_, x)))
        p.name -> value.getOrElse(throw new IllegalStateException(
          s"JOB ${q.name}: no value of $label.${p.name} passes ${preds.mkString(", ")}"))
      }.toMap

      val vid = q.vars.map { v =>
        val id = nextVid(v.label)
        nextVid(v.label) = id + 1
        add(v.label, values(v.label, v.name, isEdge = false, schema.vertex(v.label).props) +
          ("vid" -> id))
        v.name -> id
      }.toMap
      q.edges.foreach { e =>
        add(e.label, values(e.label, e.alias, isEdge = true, schema.edge(e.label).props) +
          ("src" -> vid(e.srcVar)) + ("dst" -> vid(e.dstVar)))
      }
    }
    rows.view.mapValues(_.toSeq).toMap
  }

  /** Whether `x` passes `p`, with the processors' own tests; a predicate
    * across two properties never does.
    */
  private def passes(p: Pred, x: Any): Boolean = (p, x) match {
    case (StrPred(_, t), s: String)     => t.matches(s)
    case (CmpConst(_, op, c), v: Long)  => CmpOp.holds(op.code, v, c)
    case _                              => false
  }
}
