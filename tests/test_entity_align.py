from datetime import datetime, timezone

from hypothesis import given, strategies as st

from tablediff.entity_align import (EntityKey, build_matrix, detect_entity_column,
                                    extract_row_entities, fold_surface, link_mentions,
                                    mention_key)
from tablediff.mw_client import ArticleRef, CachePolicy, MediaWikiClient, PageDocument
from tablediff.table_parser import Cell, WikiTable, extract_tables

from conftest import FakeTransport, mentions_by_language

TS = datetime(2025, 1, 1, tzinfo=timezone.utc)


def doc(html, lang="en"):
    return PageDocument(article=ArticleRef(lang, "T"), html=html,
                        revision_id=1, revision_timestamp=TS, fetched_at=TS)


def table_from(rows_html, lang="en"):
    html = f'<table class="wikitable"><tbody>{rows_html}</tbody></table>'
    return extract_tables(doc(html, lang))[0]


def a(title, label=None):
    return f'<a href="/wiki/{title.replace(" ", "_")}" title="{title}">{label or title}</a>'


def test_seven_summits_fixture_yields_seven_linked_mentions(offline_client):
    page = offline_client.fetch_page(ArticleRef("en", "Seven Summits"),
                                     CachePolicy.OFFLINE_ONLY)
    tables = extract_tables(page)
    mentions = extract_row_entities(tables[0], detect_entity_column(tables[0]))
    assert len(mentions) == 7
    assert all(m.link_title for m in mentions)
    assert mentions[0].link_title == "Mount Everest"


def test_entity_column_is_max_link_fraction_not_first():
    table = table_from(
        "<tr><th>Rank</th><th>Peak</th></tr>"
        f"<tr><td>1</td><td>{a('Everest')}</td></tr>"
        f"<tr><td>2</td><td>{a('K2')}</td></tr>"
    )
    assert detect_entity_column(table) == 1
    mentions = extract_row_entities(table, detect_entity_column(table))
    assert [m.link_title for m in mentions] == ["Everest", "K2"]


def test_column_hint_bypasses_detection():
    table = table_from("<tr><th>Name</th></tr><tr><td>Everest</td></tr>")
    assert detect_entity_column(table) is None
    mentions = extract_row_entities(table, 0)
    assert len(mentions) == 1
    assert mentions[0].link_title is None
    assert mentions[0].surface == "Everest"


def test_no_linked_column_detects_none():
    table = table_from("<tr><th>A</th><th>B</th></tr><tr><td>1</td><td>2</td></tr>")
    assert detect_entity_column(table) is None


def test_entity_column_counts_each_link_title_once():
    # Name links 9 of 10 peaks (one has no article); Country links all 10
    # rows, but to two titles only, which would collapse the rows onto two QIDs.
    peaks = ["Mount Everest", "K2", "Kangchenjunga", "Lhotse", "Makalu", "Cho Oyu",
             "Dhaulagiri", "Manaslu", "Nanga Parbat", "Annapurna"]
    countries = ["Nepal", "Pakistan", "Nepal", "Nepal", "Nepal", "Nepal", "Nepal", "Nepal",
                 "Pakistan", "Nepal"]
    table = table_from("<tr><th>Name</th><th>Country</th></tr>" + "".join(
        f"<tr><td>{peak if peak == 'Dhaulagiri' else a(peak)}</td><td>{a(country)}</td></tr>"
        for peak, country in zip(peaks, countries)))
    assert detect_entity_column(table) == 0


@given(st.integers(1, 4).flatmap(lambda n_cols: st.lists(
           st.lists(st.sampled_from([None, "", "A", "B", "C", "D"]),
                    min_size=n_cols, max_size=n_cols), max_size=8)),
       st.randoms(use_true_random=False))
def test_entity_column_ignores_row_order(links, random):
    n_cols = len(links[0]) if links else 1
    rows = [[Cell("x", link) for link in row] for row in links]
    shuffled = random.sample(rows, len(rows))
    pick = detect_entity_column(WikiTable(0, [], rows, n_cols))
    assert detect_entity_column(WikiTable(0, [], shuffled, n_cols)) == pick
    counts = [len({row[col] for row in links} - {None, ""}) for col in range(n_cols)]
    # the leftmost column with the most distinct titles, if any column links at all
    assert pick == (counts.index(max(counts)) if max(counts) else None)


def test_spanned_entity_cells_attribute_to_original_row():
    table = table_from(
        "<tr><th>Peak</th><th>Year</th></tr>"
        f'<tr><td rowspan="2">{a("Everest")}</td><td>1953</td></tr>'
        "<tr><td>1956</td></tr>"
    )
    mentions = extract_row_entities(table, detect_entity_column(table))
    assert len(mentions) == 2
    assert {m.link_title for m in mentions} == {"Everest"}
    assert [m.row_index for m in mentions] == [0, 1]


def test_missing_entity_cells_are_skipped():
    table = table_from(
        "<tr><th>Peak</th></tr>"
        f"<tr><td>{a('Everest')}</td></tr>"
        "<tr><td>—</td></tr>"
    )
    mentions = extract_row_entities(table, detect_entity_column(table))
    assert len(mentions) == 1


def test_extra_missing_markers_skip_entity_rows():
    table = table_from(
        "<tr><th>Peak</th></tr>"
        f"<tr><td>{a('Everest')}</td></tr>"
        "<tr><td>tbd</td></tr>"
    )
    assert [m.surface for m in extract_row_entities(table, 0)] == ["Everest", "tbd"]
    mentions = extract_row_entities(table, 0, extra_missing=("tbd",))
    assert [m.row_index for m in mentions] == [0]


def test_link_mentions_batches(tmp_path):
    titles = [f"Peak {i}" for i in range(60)]
    rows = "".join(f"<tr><td>{a(t)}</td></tr>" for t in titles)
    table = table_from(f"<tr><th>Peak</th></tr>{rows}")
    mentions = extract_row_entities(table, detect_entity_column(table))
    transport = FakeTransport(qids={("en", t): f"Q{i + 1}" for i, t in enumerate(titles)})
    client = MediaWikiClient(cache_dir=tmp_path, transport=transport)
    linked = link_mentions(mentions, "en", client)
    assert transport.calls == 2  # 60 titles -> two pageprops batches
    assert linked[0].qid == "Q1"
    assert linked[59].qid == "Q60"


def test_fold_surface():
    assert fold_surface("Everest") == fold_surface("EVEREST")
    assert fold_surface("Monte  Rosa") == "monte rosa"
    assert fold_surface("Zürich") == "zurich"
    assert fold_surface("Aïr") == "air"
    assert fold_surface("K2") != fold_surface("K3")


def test_surface_keys_never_merge_across_languages():
    en_table = table_from("<tr><th>Peak</th></tr><tr><td>Everest</td></tr>")
    de_table = table_from("<tr><th>Berg</th></tr><tr><td>Everest</td></tr>", lang="de")
    en = extract_row_entities(en_table, 0)
    de = extract_row_entities(de_table, 0)
    matrix = build_matrix({"en": en, "de": de})
    assert len(matrix) == 2
    for entity, occurrences in matrix.items():
        assert entity.kind == "surface"
        assert len(occurrences) == 1


def test_empty_family_builds_empty_matrix():
    matrix = build_matrix({})
    assert list(matrix) == []


def linked_table(lang, pairs):
    """Mentions of a one-column table of links, each given the paired QID."""
    rows = "".join(f"<tr><td>{a(t)}</td></tr>" for t, _q in pairs)
    table = table_from(f"<tr><th>Peak</th></tr>{rows}", lang)
    mentions = extract_row_entities(table, 0)
    return [m._replace(qid=q) for m, (_t, q) in zip(mentions, pairs)]


def test_matrix_orders_by_coverage_then_qid():
    en = linked_table("en", [("A", "Q30"), ("B", "Q2")])
    de = linked_table("de", [("A2", "Q30")])
    matrix = build_matrix({"en": en, "de": de})
    assert [e.value for e in matrix] == ["Q30", "Q2"]  # coverage first


def test_matrix_lists_languages_in_mapping_order():
    zh = linked_table("zh", [("B", "Q2"), ("A", "Q1"), ("A", "Q1")])
    en = linked_table("en", [("A", "Q1"), ("B", "Q2")])
    matrix = build_matrix({"zh": zh[::-1], "en": en, "de": []})
    assert list(matrix) == [EntityKey("qid", "Q1"), EntityKey("qid", "Q2")]
    for occurrences in matrix.values():
        assert list(occurrences) == ["zh", "en"]  # a language without mentions is under none
    assert matrix[EntityKey("qid", "Q1")] == {"zh": [(0, 1), (0, 2)], "en": [(0, 0)]}


def test_conservation_on_fixture_family(offline_client, header_mapping):
    # Every attributable row lands in the matrix exactly once per mention.
    total_mentions = 0
    tables_by_lang = {}
    for lang, title in [("en", "Seven Summits"), ("de", "Seven Summits"),
                        ("zh", "七大洲最高峰"), ("it", "Sette Vette"), ("nl", "Zeven toppen")]:
        page = offline_client.fetch_page(ArticleRef(lang, title), CachePolicy.OFFLINE_ONLY)
        linked = []
        for table in extract_tables(page):
            col = detect_entity_column(table)
            if col is None:
                continue
            mentions = extract_row_entities(table, col)
            mentions = link_mentions(mentions, lang, offline_client, CachePolicy.OFFLINE_ONLY)
            linked.append((table, mentions))
            total_mentions += len(mentions)
        tables_by_lang[lang] = linked
    matrix = build_matrix(mentions_by_language(tables_by_lang))
    occurrences = sum(len(v) for by_language in matrix.values() for v in by_language.values())
    assert occurrences == total_mentions
    q513 = EntityKey("qid", "Q513")
    assert list(matrix[q513]) == ["en", "de", "zh", "it", "nl"]


def brute_force_groups(tables_by_lang):
    """O(n^2) nested-loop QID matcher used as the alignment oracle."""
    mentions = []
    for lang, linked in tables_by_lang.items():
        for _table, ms in linked:
            for m in ms:
                mentions.append((lang, m))
    same = {}
    for i, (lang_i, m_i) in enumerate(mentions):
        for j, (lang_j, m_j) in enumerate(mentions):
            if i < j and m_i.qid and m_j.qid and m_i.qid == m_j.qid:
                same.setdefault(i, set()).add(j)
    return mentions, same


def test_matrix_agrees_with_brute_force_on_small_tables(offline_client):
    pages = [("en", "Seven Summits"), ("de", "Seven Summits"), ("zh", "七大洲最高峰")]
    tables_by_lang = {}
    for lang, title in pages:
        page = offline_client.fetch_page(ArticleRef(lang, title), CachePolicy.OFFLINE_ONLY)
        linked = []
        for table in extract_tables(page):
            if table.n_body_rows > 10:
                continue
            col = detect_entity_column(table)
            if col is None:
                continue
            mentions = extract_row_entities(table, col)
            mentions = link_mentions(mentions, lang, offline_client, CachePolicy.OFFLINE_ONLY)
            linked.append((table, mentions))
        tables_by_lang[lang] = linked

    matrix = build_matrix(mentions_by_language(tables_by_lang))
    position_to_entity = {}
    for entity, by_language in matrix.items():
        for lang, occs in by_language.items():
            for occ in occs:
                position_to_entity[(lang, occ)] = entity

    mentions, same = brute_force_groups(tables_by_lang)
    for i, (lang_i, m_i) in enumerate(mentions):
        for j, (lang_j, m_j) in enumerate(mentions):
            if i >= j or not (m_i.qid and m_j.qid):
                continue
            key_i = position_to_entity[(lang_i, (m_i.table_index, m_i.row_index))]
            key_j = position_to_entity[(lang_j, (m_j.table_index, m_j.row_index))]
            assert (key_i == key_j) == (j in same.get(i, set()))
