#!/usr/bin/env python3
"""Regenerate the vendored fixture corpus under fixtures/.

Everything here is deterministic: page HTML, revision metadata, QID and
langlink caches, the bundled header mapping, and the golden stats file are
all derived from the budget tables below, so reruns are byte-identical.
The golden numbers are the budgets themselves, written independently of the
analysis pipeline; the acceptance suite then checks the pipeline reproduces
them from the HTML.

Usage: python scripts/build_fixtures.py [--repo-root PATH]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import zlib
from pathlib import Path
from urllib.parse import quote

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from tablediff.schema_align import normalize_header  # noqa: E402
from tablediff.value_analysis import _separators  # noqa: E402

LANGS = ["en", "de", "zh", "it", "nl"]
FETCHED_AT = "2025-07-01T00:00:00Z"

# ---------------------------------------------------------------------------
# Attribute vocabulary: canonical name -> per-language header display text.
# The mapping file aliases are the normalized forms of these displays.
# ---------------------------------------------------------------------------

ATTR_HEADERS: dict[str, dict[str, str]] = {
    "rank": {"en": "Rank", "de": "Rang", "zh": "排名", "it": "Posizione", "nl": "Rang"},
    # "name" covers the entity column; per-family display variants below.
    "name": {"en": "Name", "de": "Name", "zh": "姓名", "it": "Nome", "nl": "Naam"},
    "height": {"en": "Height (m)", "de": "Höhe (m)", "zh": "高度（米）",
               "it": "Altezza (m)", "nl": "Hoogte (m)"},
    "death_rate": {"en": "Death rate", "de": "Tote / Besteigungen", "zh": "死亡率",
                   "it": "Tasso di mortalità", "nl": "Sterftecijfer"},
    "first_ascent": {"en": "First ascent", "de": "Erstbesteigung", "zh": "首次登顶",
                     "it": "Prima ascensione", "nl": "Eerste beklimming"},
    "range": {"en": "Range", "de": "Gebirge", "zh": "山脉", "it": "Catena", "nl": "Gebergte"},
    "country": {"en": "Country", "de": "Land", "zh": "国家", "it": "Paese", "nl": "Land"},
    "continent": {"en": "Continent", "de": "Kontinent", "zh": "大洲",
                  "it": "Continente", "nl": "Continent"},
    "prominence": {"en": "Prominence (m)", "de": "Schartenhöhe (m)", "zh": "相对高度（米）",
                   "it": "Prominenza (m)", "nl": "Prominentie (m)"},
    "coordinates": {"en": "Coordinates", "de": "Koordinaten", "zh": "坐标",
                    "it": "Coordinate", "nl": "Coördinaten"},
    "area": {"en": "Area (km2)", "de": "Fläche (km2)", "zh": "面积（平方千米）",
             "it": "Superficie (km2)", "nl": "Oppervlakte (km2)"},
    "depth": {"en": "Depth (m)", "de": "Tiefe (m)", "zh": "深度（米）",
              "it": "Profondità (m)", "nl": "Diepte (m)"},
    "volume": {"en": "Volume (km3)", "de": "Volumen (km3)", "zh": "体积（立方千米）",
               "it": "Volume (km3)", "nl": "Volume (km3)"},
    "magnitude": {"en": "Magnitude", "de": "Magnitude", "zh": "震级",
                  "it": "Magnitudo", "nl": "Magnitude"},
    "date": {"en": "Date", "de": "Datum", "zh": "日期", "it": "Data", "nl": "Datum"},
    "fatalities": {"en": "Fatalities", "de": "Todesopfer", "zh": "死亡人数",
                   "it": "Vittime", "nl": "Slachtoffers"},
    "location": {"en": "Location", "de": "Ort", "zh": "位置", "it": "Località", "nl": "Locatie"},
    "period": {"en": "Period", "de": "Zeitraum", "zh": "时间段", "it": "Periodo", "nl": "Periode"},
    "nationality": {"en": "Nationality", "de": "Nationalität", "zh": "国籍",
                    "it": "Nazionalità", "nl": "Nationaliteit"},
    "duration": {"en": "Duration (years)", "de": "Dauer (Jahre)", "zh": "用时（年）",
                 "it": "Durata (anni)", "nl": "Duur (jaren)"},
    "gender": {"en": "Gender", "de": "Geschlecht", "zh": "性别", "it": "Sesso", "nl": "Geslacht"},
    "new_route": {"en": "New route", "de": "Neue Route", "zh": "新路线",
                  "it": "Nuova via", "nl": "Nieuwe route"},
    "winter_ascent": {"en": "Winter ascent", "de": "Winterbesteigung", "zh": "冬季登顶",
                      "it": "Salita invernale", "nl": "Winterbeklimming"},
    "notes": {"en": "Notes", "de": "Anmerkungen", "zh": "备注", "it": "Note", "nl": "Opmerkingen"},
}

# Entity-column display per family kind; all map to the "name" attribute.
NAME_HEADERS = {
    "mountain": {"en": "Mountain", "de": "Berg", "zh": "山峰", "it": "Montagna", "nl": "Berg"},
    "lake": {"en": "Lake", "de": "See", "zh": "湖泊", "it": "Lago", "nl": "Meer"},
    "event": {"en": "Event", "de": "Ereignis", "zh": "地震", "it": "Evento", "nl": "Gebeurtenis"},
    "person": ATTR_HEADERS["name"],
}

FILLER_WORD = {"en": "Metric", "de": "Kennzahl", "zh": "指标", "it": "Indicatore", "nl": "Kenmerk"}
N_FILLERS = 40

# zh cells carry CJK unit suffixes for these attributes
ZH_SUFFIX = {"height": "米", "area": "平方千米"}

MISSING_MARKERS = ["—", "", "n/a", "–"]

FILLER_LANGS = [
    "fr", "es", "ja", "ru", "pt", "pl", "sv", "uk", "vi", "ar",
    "ko", "tr", "fa", "id", "cs", "hu", "fi", "da", "no", "ro",
    "bg", "el", "he", "th", "hi", "ca", "sr", "sk", "lv", "et",
    "sl", "hr", "ms", "eu", "gl", "az", "ka", "hy", "kk", "mk",
    "mn", "ne", "si", "sw", "ta", "te", "ur", "uz", "be", "bn",
    "bs", "af", "sq",
]


def crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def loc(en, de=None, zh=None, it=None, nl=None) -> dict[str, str]:
    return {"en": en, "de": de or en, "zh": zh or en, "it": it or en, "nl": nl or en}


# ---------------------------------------------------------------------------
# Entities. "titles" are the wiki-link targets per language (en title is the
# default); "data" holds content-attribute values. A dict value keyed by
# language is a literal per-language cell; ints/floats are locale-formatted.
# ---------------------------------------------------------------------------

def _mountain(qid, titles, height, first_ascent, range_, country, continent,
              prominence, coords, death_rate=None, height_override=None):
    data = {
        "height": {"__num__": height, **(height_override or {})},
        "first_ascent": {"__year__": first_ascent},
        "range": range_,
        "country": country,
        "continent": continent,
        "prominence": {"__num__": prominence},
        "coordinates": coords,
    }
    if death_rate:
        data["death_rate"] = death_rate
    return {"qid": qid, "titles": titles, "data": data}


ASIA = loc("Asia", "Asien", "亚洲", "Asia", "Azië")
HIMALAYA = loc("Himalayas", "Himalaya", "喜马拉雅山脉", "Himalaya", "Himalaya")
KARAKORAM = loc("Karakoram", "Karakorum", "喀喇昆仑山脉", "Karakorum", "Karakoram")
NEPAL = loc("Nepal", "Nepal", "尼泊尔", "Nepal", "Nepal")
PAKISTAN = loc("Pakistan", "Pakistan", "巴基斯坦", "Pakistan", "Pakistan")
CHINA = loc("China", "China", "中国", "Cina", "China")
ALPS = loc("Alps", "Alpen", "阿尔卑斯山脉", "Alpi", "Alpen")

SEVEN_SUMMITS = [
    _mountain("Q513", loc("Mount Everest", zh="珠穆朗玛峰", it="Everest"),
              8849, 1953, HIMALAYA, NEPAL, ASIA, 8849, "27°59′N 86°55′E",
              death_rate={"zh": "1.3%", "it": "1,2 %", "de": "280/11000"},
              height_override={"de": 8848}),
    _mountain("Q39739", loc("Aconcagua", zh="阿空加瓜山"),
              6961, 1897, loc("Andes", zh="安第斯山脉", it="Ande"),
              loc("Argentina", de="Argentinien", zh="阿根廷"),
              loc("South America", "Südamerika", "南美洲", "America del Sud", "Zuid-Amerika"),
              6961, "32°39′S 70°00′W",
              death_rate={"zh": "3.1%", "it": "3,1 %", "de": "110/3550"}),
    _mountain("Q130018", loc("Denali", zh="迪纳利山"),
              6190, 1913, loc("Alaska Range", "Alaskakette", "阿拉斯加山脉", "Catena dell'Alaska"),
              loc("United States", "Vereinigte Staaten", "美国", "Stati Uniti", "Verenigde Staten"),
              loc("North America", "Nordamerika", "北美洲", "America del Nord", "Noord-Amerika"),
              6155, "63°04′N 151°00′W",
              death_rate={"zh": "1.8%", "it": "1,8 %", "de": "32/1780"}),
    _mountain("Q7296", loc("Mount Kilimanjaro", de="Kilimandscharo", zh="乞力马扎罗山", it="Kilimangiaro"),
              5895, 1889, loc("Eastern Rift", "Ostafrikanischer Graben", "东非大裂谷"),
              loc("Tanzania", de="Tansania", zh="坦桑尼亚"),
              loc("Africa", "Afrika", "非洲", "Africa", "Afrika"),
              5885, "3°04′S 37°21′E",
              death_rate={"zh": "0.5%", "it": "0,5 %", "de": "25/5000"}),
    _mountain("Q43105", loc("Mount Elbrus", de="Elbrus", zh="厄尔布鲁士山", it="Elbrus"),
              5642, 1874, loc("Caucasus", "Kaukasus", "高加索山脉", "Caucaso", "Kaukasus"),
              loc("Russia", "Russland", "俄罗斯", "Russia", "Rusland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"),
              4741, "43°21′N 42°26′E",
              death_rate={"zh": "1.0%", "it": "1,0 %", "de": "19/1900"}),
    _mountain("Q43772", loc("Vinson Massif", zh="文森山", it="Massiccio Vinson"),
              4892, 1966, loc("Sentinel Range", "Sentinel Range", "森蒂纳尔岭"),
              loc("Antarctica", "Antarktika", "南极洲", "Antartide", "Antarctica"),
              loc("Antarctica", "Antarktika", "南极洲", "Antartide", "Antarctica"),
              4892, "78°31′S 85°37′W",
              death_rate={"zh": "0.1%", "it": "0,1 %", "de": "1/1000"}),
    _mountain("Q742900", loc("Puncak Jaya", zh="查亚峰"),
              4884, 1962, loc("Sudirman Range", "Sudirman-Gebirge", "苏迪曼山脉"),
              loc("Indonesia", de="Indonesien", zh="印度尼西亚"),
              loc("Oceania", "Ozeanien", "大洋洲", "Oceania", "Oceanië"),
              4884, "4°05′S 137°11′E",
              death_rate={"zh": "2.2%", "it": "2,2 %", "de": "11/500"}),
]

EIGHT_THOUSANDERS = [
    _mountain("Q513", loc("Mount Everest", zh="珠穆朗玛峰", it="Everest"),
              8849, 1953, HIMALAYA, NEPAL, ASIA, 8849, "27°59′N 86°55′E",
              death_rate={"zh": "5.9%", "it": "5,9 %", "de": "330/5600"}),
    _mountain("Q43512", loc("K2", zh="乔戈里峰"),
              8611, 1954, KARAKORAM, PAKISTAN, ASIA, 4020, "35°52′N 76°30′E",
              death_rate={"zh": "29.5%", "it": "26,5 %", "de": "80/302"}),
    _mountain("Q43610", loc("Kangchenjunga", de="Kangchendzönga", zh="干城章嘉峰"),
              8586, 1955, HIMALAYA, NEPAL, ASIA, 3922, "27°42′N 88°09′E",
              death_rate={"zh": "22.9%", "it": "22,9 %", "de": "64/280"}),
    _mountain("Q43282", loc("Lhotse", zh="洛子峰"),
              8516, 1956, HIMALAYA, NEPAL, ASIA, 610, "27°57′N 86°56′E",
              death_rate={"zh": "10.9%", "it": "10,9 %", "de": "31/285"}),
    _mountain("Q43436", loc("Makalu", zh="马卡鲁峰"),
              8485, 1955, HIMALAYA, NEPAL, ASIA, 2378, "27°53′N 87°05′E",
              death_rate={"zh": "8.5%", "it": "8,5 %", "de": "45/528"}),
    _mountain("Q43471", loc("Cho Oyu", zh="卓奥友峰"),
              8188, 1954, HIMALAYA, NEPAL, ASIA, 2340, "28°05′N 86°39′E",
              death_rate={"zh": "1.4%", "it": "1,4 %", "de": "52/3700"}),
    _mountain("Q43474", loc("Dhaulagiri", zh="道拉吉里峰"),
              8167, 1960, HIMALAYA, NEPAL, ASIA, 3357, "28°41′N 83°29′E",
              death_rate={"zh": "15.4%", "it": "15,4 %", "de": "85/552"}),
    _mountain("Q43513", loc("Manaslu", zh="马纳斯卢峰"),
              8163, 1956, HIMALAYA, NEPAL, ASIA, 3092, "28°33′N 84°33′E",
              death_rate={"zh": "9.8%", "it": "9,8 %", "de": "65/661"}),
    _mountain("Q43430", loc("Nanga Parbat", zh="南迦帕尔巴特峰"),
              8126, 1953, HIMALAYA, PAKISTAN, ASIA, 4608, "35°14′N 74°35′E",
              death_rate={"zh": "20.3%", "it": "20,3 %", "de": "68/335"}),
    _mountain("Q43459", loc("Annapurna I", de="Annapurna", zh="安纳布尔纳峰", it="Annapurna"),
              8091, 1950, HIMALAYA, NEPAL, ASIA, 2984, "28°35′N 83°49′E",
              death_rate={"zh": "27.2%", "it": "27,2 %", "de": "72/265"}),
    _mountain("Q43515", loc("Gasherbrum I", zh="加舒尔布鲁木I峰"),
              8080, 1958, KARAKORAM, PAKISTAN, ASIA, 2155, "35°43′N 76°41′E",
              death_rate={"zh": "8.8%", "it": "8,8 %", "de": "31/352"}),
    _mountain("Q43516", loc("Broad Peak", zh="布洛阿特峰"),
              8051, 1957, KARAKORAM, PAKISTAN, ASIA, 1701, "35°48′N 76°34′E",
              death_rate={"zh": "5.2%", "it": "5,2 %", "de": "21/404"}),
    _mountain("Q43517", loc("Gasherbrum II", zh="加舒尔布鲁木II峰"),
              8034, 1956, KARAKORAM, PAKISTAN, ASIA, 1524, "35°45′N 76°39′E",
              death_rate={"zh": "2.3%", "it": "2,3 %", "de": "21/913"}),
    _mountain("Q43514", loc("Shishapangma", zh="希夏邦马峰"),
              8027, 1964, HIMALAYA, CHINA, ASIA, 2897, "28°21′N 85°46′E",
              death_rate={"zh": "8.3%", "it": "8,3 %", "de": "25/301"}),
]

ALPS_PEAKS = [
    _mountain("Q583", loc("Mont Blanc", zh="勃朗峰", it="Monte Bianco"),
              4808, 1786, ALPS, loc("France", "Frankreich", "法国", "Francia", "Frankrijk"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 4696, "45°50′N 6°51′E"),
    _mountain("Q674591", loc("Dufourspitze", zh="杜富尔峰", it="Punta Dufour"),
              4634, 1855, ALPS, loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 2165, "45°56′N 7°52′E"),
    _mountain("Q674822", loc("Dom", zh="多姆峰"),
              4545, 1858, ALPS, loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 1046, "46°05′N 7°51′E"),
    _mountain("Q674901", loc("Liskamm", zh="利斯卡姆峰"),
              4527, 1861, ALPS, loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 376, "45°55′N 7°50′E"),
    _mountain("Q675034", loc("Weisshorn", zh="魏斯峰"),
              4506, 1861, ALPS, loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 1235, "46°06′N 7°43′E"),
    _mountain("Q1374", loc("Matterhorn", zh="马特洪峰", it="Cervino"),
              4478, 1865, ALPS, loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 1042, "45°58′N 7°39′E"),
    _mountain("Q675188", loc("Dent Blanche", zh="白牙峰"),
              4357, 1862, ALPS, loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 915, "46°02′N 7°36′E"),
    _mountain("Q675291", loc("Grand Combin", zh="大孔班峰"),
              4314, 1859, ALPS, loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 1517, "45°56′N 7°18′E"),
    _mountain("Q675400", loc("Finsteraarhorn", zh="芬斯特拉峰"),
              4274, 1829, ALPS, loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 2280, "46°32′N 8°07′E"),
    _mountain("Q675512", loc("Aletschhorn", zh="阿莱奇峰"),
              4193, 1859, ALPS, loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"),
              loc("Europe", "Europa", "欧洲", "Europa", "Europa"), 1042, "46°28′N 7°59′E"),
]

UNCLIMBED = [
    _mountain("Q755516", loc("Gangkhar Puensum", zh="岗嘎本孙峰"),
              7570, 0, HIMALAYA, loc("Bhutan", zh="不丹"), ASIA, 2995, "28°03′N 90°27′E"),
    _mountain("Q755622", loc("Muchu Chhish"),
              7453, 0, KARAKORAM, PAKISTAN, ASIA, 263, "36°31′N 74°59′E"),
    _mountain("Q755977", loc("Kabru North", zh="卡布鲁北峰"),
              7338, 0, HIMALAYA, NEPAL, ASIA, 780, "27°38′N 88°07′E"),
    _mountain("Q755719", loc("Labuche Kang III"),
              7250, 0, HIMALAYA, CHINA, ASIA, 570, "28°18′N 86°21′E"),
    _mountain("Q755803", loc("Karjiang", zh="卡热疆峰"),
              7221, 0, HIMALAYA, CHINA, ASIA, 895, "28°15′N 90°39′E"),
    _mountain("Q755894", loc("Tongshanjiabu", zh="通沙加布峰"),
              7207, 0, HIMALAYA, loc("Bhutan", zh="不丹"), ASIA, 1757, "28°11′N 89°57′E"),
    _mountain("Q756061", loc("Chamar", zh="查马尔峰"),
              7161, 0, HIMALAYA, NEPAL, ASIA, 1603, "28°33′N 84°56′E"),
]
for _peak in UNCLIMBED:
    # Unclimbed peaks have no first ascent by definition.
    _peak["data"].pop("first_ascent")

_QUAKES_RAW = [
    ("Q799304", loc("1960 Valdivia earthquake", "Erdbeben von Valdivia 1960", "1960年瓦尔迪维亚大地震",
                    "Terremoto di Valdivia del 1960", "Zeebeving bij Valdivia 1960"),
     "1960-05-22", 9.5, 5700, loc("Valdivia, Chile", zh="智利瓦尔迪维亚"),
     loc("Chile", zh="智利", it="Cile", nl="Chili")),
    ("Q799418", loc("1964 Alaska earthquake", "Karfreitagsbeben 1964", "1964年阿拉斯加大地震",
                    "Terremoto dell'Alaska del 1964", "Zeebeving bij Alaska 1964"),
     "1964-03-27", 9.2, 131, loc("Prince William Sound, Alaska", zh="阿拉斯加威廉王子湾"),
     loc("United States", "Vereinigte Staaten", "美国", "Stati Uniti", "Verenigde Staten")),
    ("Q139255", loc("2004 Indian Ocean earthquake", "Erdbeben im Indischen Ozean 2004",
                    "2004年印度洋大地震", "Terremoto dell'Oceano Indiano del 2004",
                    "Zeebeving Indische Oceaan 2004"),
     "2004-12-26", 9.1, 227898, loc("Off Sumatra", zh="苏门答腊近海"),
     loc("Indonesia", de="Indonesien", zh="印度尼西亚")),
    ("Q36204", loc("2011 Tōhoku earthquake", "Tōhoku-Erdbeben 2011", "2011年日本东北地方太平洋近海地震",
                    "Terremoto del Tōhoku del 2011", "Zeebeving Sendai 2011"),
     "2011-03-11", 9.1, 19759, loc("Off Tōhoku, Japan", zh="日本东北地方近海"),
     loc("Japan", zh="日本", it="Giappone")),
    ("Q799521", loc("1950 Assam–Tibet earthquake", "Assam-Erdbeben 1950", "1950年墨脱大地震",
                    "Terremoto dell'Assam del 1950", "Aardbeving Assam 1950"),
     "1950-08-15", 8.6, 4800, loc("Assam–Tibet", zh="阿萨姆-西藏"),
     loc("India", de="Indien", zh="印度")),
    ("Q211386", loc("1906 San Francisco earthquake", "Erdbeben von San Francisco 1906",
                    "1906年旧金山大地震", "Terremoto di San Francisco del 1906",
                    "Aardbeving San Francisco 1906"),
     "1906-04-18", 7.9, 3000, loc("San Francisco, California", zh="旧金山"),
     loc("United States", "Vereinigte Staaten", "美国", "Stati Uniti", "Verenigde Staten")),
    ("Q173118", loc("1755 Lisbon earthquake", "Erdbeben von Lissabon 1755", "1755年里斯本大地震",
                    "Terremoto di Lisbona del 1755", "Aardbeving Lissabon 1755"),
     "1755-11-01", 8.4, 50000, loc("Lisbon", de="Lissabon", zh="里斯本", it="Lisbona", nl="Lissabon"),
     loc("Portugal", zh="葡萄牙", it="Portogallo")),
    ("Q799634", loc("2010 Haiti earthquake", "Erdbeben in Haiti 2010", "2010年海地地震",
                    "Terremoto di Haiti del 2010", "Aardbeving Haïti 2010"),
     "2010-01-12", 7.0, 160000, loc("Port-au-Prince, Haiti", zh="太子港"),
     loc("Haiti", zh="海地", nl="Haïti")),
]
EARTHQUAKES = [
    {"qid": qid, "titles": titles,
     "data": {"date": date, "magnitude": {"__num__": magnitude},
              "fatalities": {"__num__": fatalities}, "location": location, "country": country}}
    for qid, titles, date, magnitude, fatalities, location, country in _QUAKES_RAW
]


def _lake(qid, titles, area, depth, volume, country, continent, location=None):
    data = {"area": {"__num__": area}, "depth": {"__num__": depth},
            "volume": {"__num__": volume}, "country": country, "continent": continent}
    if location:
        data["location"] = location
    return {"qid": qid, "titles": titles, "data": data}


TITAN_LAKES = [
    {"qid": qid, "titles": titles,
     "data": {"area": {"__num__": area}, "depth": {"__num__": depth}, "location": location}}
    for qid, titles, area, depth, location in [
        ("Q739186", loc("Kraken Mare", zh="克拉肯海"), 400000, 160, "68°N 310°W"),
        ("Q739076", loc("Ligeia Mare", zh="丽姬娅海"), 126000, 200, "79°N 248°W"),
        ("Q739277", loc("Punga Mare", zh="蓬加海"), 40000, 110, "85°N 340°W"),
        ("Q739388", loc("Jingpo Lacus", zh="镜泊湖 (土卫六)"), 23000, 85, "73°N 336°W"),
        ("Q739493", loc("Ontario Lacus", zh="安大略湖 (土卫六)"), 15600, 50, "72°S 183°W"),
        ("Q739581", loc("Hammar Lacus"), 2000, 35, "48°N 308°W"),
        ("Q739662", loc("Mackay Lacus"), 1800, 28, "78°N 97°W"),
        ("Q739751", loc("Bolsena Lacus"), 700, 20, "75°N 10°W"),
    ]
]

EUROPE = loc("Europe", "Europa", "欧洲", "Europa", "Europa")
EUROPE_LAKES = [
    _lake("Q17675", loc("Lake Ladoga", "Ladogasee", "拉多加湖", "Lago Ladoga", "Ladogameer"),
          17700, 230, 837, loc("Russia", "Russland", "俄罗斯", "Russia", "Rusland"), EUROPE),
    _lake("Q753211", loc("Lake Onega", "Onegasee", "奥涅加湖", "Lago Onega", "Onegameer"),
          9700, 127, 285, loc("Russia", "Russland", "俄罗斯", "Russia", "Rusland"), EUROPE),
    _lake("Q173596", loc("Vänern", zh="维纳恩湖"),
          5650, 106, 153, loc("Sweden", "Schweden", "瑞典", "Svezia", "Zweden"), EUROPE),
    _lake("Q753305", loc("Saimaa", zh="塞马湖"),
          4400, 82, 36, loc("Finland", "Finnland", "芬兰", "Finlandia", "Finland"), EUROPE),
    _lake("Q753394", loc("Lake Peipus", "Peipussee", "楚德湖", "Lago dei Ciudi", "Peipusmeer"),
          3555, 15, 25, loc("Estonia", "Estland", "爱沙尼亚", "Estonia", "Estland"), EUROPE),
    _lake("Q753467", loc("Vättern", zh="韦特恩湖"),
          1912, 128, 74, loc("Sweden", "Schweden", "瑞典", "Svezia", "Zweden"), EUROPE),
    _lake("Q753543", loc("Mälaren", zh="梅拉伦湖"),
          1140, 64, 14, loc("Sweden", "Schweden", "瑞典", "Svezia", "Zweden"), EUROPE),
    _lake("Q753689", loc("Päijänne", zh="派扬奈湖"),
          1080, 95, 18, loc("Finland", "Finnland", "芬兰", "Finlandia", "Finland"), EUROPE),
    _lake("Q753611", loc("Lake Inari", "Inarisee", "伊纳里湖", "Lago Inari", "Inarimeer"),
          1040, 92, 15, loc("Finland", "Finnland", "芬兰", "Finlandia", "Finland"), EUROPE),
    _lake("Q753766", loc("Lake Ilmen", "Ilmensee", "伊尔门湖", "Lago Ilmen", "Ilmenmeer"),
          982, 10, 12, loc("Russia", "Russland", "俄罗斯", "Russia", "Rusland"), EUROPE),
]

AREA_LAKES = [
    _lake("Q5484", loc("Caspian Sea", "Kaspisches Meer", "里海", "Mar Caspio", "Kaspische Zee"),
          371000, 1025, 78200, loc("Kazakhstan and others", "Kasachstan u. a.", "哈萨克斯坦等国"),
          ASIA),
    _lake("Q1066", loc("Lake Superior", "Oberer See", "苏必利尔湖", "Lago Superiore", "Bovenmeer"),
          82100, 406, 12100, loc("Canada / United States", "Kanada / USA", "加拿大/美国"),
          loc("North America", "Nordamerika", "北美洲", "America del Nord", "Noord-Amerika")),
    _lake("Q5505", loc("Lake Victoria", "Victoriasee", "维多利亚湖", "Lago Vittoria", "Victoriameer"),
          68870, 84, 2750, loc("Tanzania and others", "Tansania u. a.", "坦桑尼亚等国"),
          loc("Africa", "Afrika", "非洲", "Africa", "Afrika")),
    _lake("Q1383", loc("Lake Huron", "Huronsee", "休伦湖", "Lago Huron", "Huronmeer"),
          59600, 229, 3540, loc("Canada / United States", "Kanada / USA", "加拿大/美国"),
          loc("North America", "Nordamerika", "北美洲", "America del Nord", "Noord-Amerika")),
    _lake("Q1169", loc("Lake Michigan", "Michigansee", "密歇根湖", "Lago Michigan", "Michiganmeer"),
          58000, 281, 4900, loc("United States", "Vereinigte Staaten", "美国", "Stati Uniti",
                                "Verenigde Staten"),
          loc("North America", "Nordamerika", "北美洲", "America del Nord", "Noord-Amerika")),
    _lake("Q5511", loc("Lake Tanganyika", "Tanganjikasee", "坦噶尼喀湖", "Lago Tanganica",
                       "Tanganyikameer"),
          32900, 1470, 18900, loc("Tanzania and others", "Tansania u. a.", "坦桑尼亚等国"),
          loc("Africa", "Afrika", "非洲", "Africa", "Afrika")),
    _lake("Q5513", loc("Lake Baikal", "Baikalsee", "贝加尔湖", "Lago Bajkal", "Baikalmeer"),
          31722, 1642, 23600, loc("Russia", "Russland", "俄罗斯", "Russia", "Rusland"), ASIA),
    _lake("Q5525", loc("Great Bear Lake", "Großer Bärensee", "大熊湖", "Gran Lago degli Orsi",
                       "Grote Berenmeer"),
          31328, 446, 2236, loc("Canada", "Kanada", "加拿大"),
          loc("North America", "Nordamerika", "北美洲", "America del Nord", "Noord-Amerika")),
    _lake("Q5532", loc("Lake Malawi", "Malawisee", "马拉维湖", "Lago Malawi", "Malawimeer"),
          29600, 706, 8400, loc("Malawi and others", "Malawi u. a.", "马拉维等国"),
          loc("Africa", "Afrika", "非洲", "Africa", "Afrika")),
    _lake("Q5539", loc("Great Slave Lake", "Großer Sklavensee", "大奴湖", "Grande Lago degli Schiavi",
                       "Grote Slavenmeer"),
          27200, 614, 1580, loc("Canada", "Kanada", "加拿大"),
          loc("North America", "Nordamerika", "北美洲", "America del Nord", "Noord-Amerika")),
]

_CLIMBERS_RAW = [
    ("Q76117", loc("Reinhold Messner", zh="莱茵霍尔德·梅斯纳尔"), "1970–1986",
     loc("Italy", "Italien", "意大利", "Italia", "Italië"), 16, "Nee", "Nee"),
    ("Q275297", loc("Jerzy Kukuczka", zh="耶日·库库奇卡"), "1979–1987",
     loc("Poland", "Polen", "波兰", "Polonia", "Polen"), 8, "Ja", "Ja"),
    ("Q445233", loc("Erhard Loretan", zh="埃哈德·洛雷坦"), "1982–1995",
     loc("Switzerland", "Schweiz", "瑞士", "Svizzera", "Zwitserland"), 13, "Nee", "Ja"),
    ("Q445300", loc("Carlos Carsolio", zh="卡洛斯·卡索利奥"), "1985–1996",
     loc("Mexico", "Mexiko", "墨西哥", "Messico", "Mexico"), 11, "Ja", "Nee"),
    ("Q445378", loc("Krzysztof Wielicki", zh="克日什托夫·维利茨基"), "1980–1996",
     loc("Poland", "Polen", "波兰", "Polonia", "Polen"), 16, "Nee", "Ja"),
    ("Q445441", loc("Juanito Oiarzabal", zh="胡安尼托·奥亚萨瓦尔"), "1985–1999",
     loc("Spain", "Spanien", "西班牙", "Spagna", "Spanje"), 14, "Nee", "Nee"),
    ("Q445507", loc("Sergio Martini", zh="塞尔吉奥·马蒂尼"), "1976–2000",
     loc("Italy", "Italien", "意大利", "Italia", "Italië"), 24, "Nee", "Nee"),
    ("Q445586", loc("Park Young-seok", zh="朴英硕"), "1993–2001",
     loc("South Korea", "Südkorea", "韩国", "Corea del Sud", "Zuid-Korea"), 8, "Ja", "Nee"),
    ("Q445652", loc("Um Hong-gil", zh="严弘吉"), "1988–2000",
     loc("South Korea", "Südkorea", "韩国", "Corea del Sud", "Zuid-Korea"), 12, "Nee", "Nee"),
    ("Q445718", loc("Alberto Iñurrategi", zh="阿尔韦托·伊努拉特吉"), "1991–2002",
     loc("Spain", "Spanien", "西班牙", "Spagna", "Spanje"), 11, "Nee", "Nee"),
    ("Q445791", loc("Han Wang-yong", zh="韩王龙"), "1994–2003",
     loc("South Korea", "Südkorea", "韩国", "Corea del Sud", "Zuid-Korea"), 9, "Nee", "Nee"),
    ("Q445860", loc("Ed Viesturs", zh="埃德·维斯特尔斯"), "1989–2005",
     loc("United States", "Vereinigte Staaten", "美国", "Stati Uniti", "Verenigde Staten"),
     16, "Nee", "Nee"),
]
CLIMBERS = [
    {"qid": qid, "titles": titles,
     "data": {"period": period, "nationality": nationality, "duration": {"__num__": years},
              "gender": "M", "new_route": new_route, "winter_ascent": winter}}
    for qid, titles, period, nationality, years, new_route, winter in _CLIMBERS_RAW
]

# ---------------------------------------------------------------------------
# Page budgets: (tables, references, main columns, incomplete columns,
# content attribute order). Missing language -> edition absent. tables=0 ->
# page exists without data tables.
# ---------------------------------------------------------------------------

MOUNTAIN_FULL = ["rank", "name", "height", "range", "country", "first_ascent",
                 "prominence", "coordinates"]
LAKE_FULL = ["rank", "name", "area", "depth", "volume", "country", "continent"]

FAMILIES: dict[str, dict] = {
    "seven_summits": {
        "kind": "mountain",
        "titles": loc("Seven Summits", zh="七大洲最高峰", it="Sette Vette", nl="Zeven toppen"),
        "entities": SEVEN_SUMMITS,
        "langlinks_total": 58,
        "revisions": {"en": "2025-06-10T08:00:00Z", "de": "2024-09-01T10:00:00Z",
                      "zh": "2025-06-11T09:00:00Z", "it": "2025-06-12T10:00:00Z",
                      "nl": "2025-06-13T11:00:00Z"},
        "pages": {
            "en": (4, 63, 12, 1, ["rank", "name", "height", "continent", "range", "country",
                                  "first_ascent"]),
            "de": (2, 28, 10, 2, ["rank", "name", "height", "death_rate", "first_ascent"]),
            "zh": (3, 12, 16, 2, ["rank", "name", "height", "death_rate", "continent", "range",
                                  "first_ascent"]),
            "it": (2, 20, 14, 2, ["rank", "name", "height", "death_rate", "continent",
                                  "first_ascent"]),
            "nl": (2, 6, 10, 1, ["rank", "name", "height", "continent", "first_ascent"]),
        },
    },
    "eight_thousander": {
        "kind": "mountain",
        "titles": loc("Eight-thousander", de="Achttausender", zh="八千米高山", it="Ottomila",
                      nl="Achtduizender"),
        "entities": EIGHT_THOUSANDERS,
        "langlinks_total": 57,
        "revisions": {"en": "2025-06-08T07:00:00Z", "de": "2025-06-09T08:00:00Z",
                      "zh": "2025-06-10T09:00:00Z", "it": "2025-06-11T10:00:00Z",
                      "nl": "2025-06-12T11:00:00Z"},
        "main_pos": {"en": 1},
        "pages": {
            "en": (8, 264, 38, 9, MOUNTAIN_FULL),
            "de": (4, 52, 30, 12, ["rank", "name", "height", "range", "first_ascent",
                                   "death_rate"]),
            "zh": (5, 18, 28, 4, ["rank", "name", "height", "range", "first_ascent",
                                  "death_rate"]),
            "it": (3, 25, 22, 3, ["rank", "name", "height", "first_ascent", "death_rate"]),
            "nl": (2, 8, 16, 3, ["rank", "name", "height", "first_ascent"]),
        },
    },
    "alps_4000m": {
        "kind": "mountain",
        "titles": {"en": "List of mountains of the Alps over 4000 metres",
                   "de": "Liste der Viertausender in den Alpen",
                   "zh": "阿尔卑斯山4000米以上山峰列表",
                   "it": "Montagne delle Alpi oltre 4000 metri"},
        "entities": ALPS_PEAKS,
        "langlinks_total": 15,
        "revisions": {"en": "2025-05-20T12:00:00Z", "de": "2025-05-22T12:00:00Z",
                      "zh": "2025-05-24T12:00:00Z", "it": "2025-05-26T12:00:00Z"},
        "pages": {
            "en": (5, 41, 30, 6, ["rank", "name", "height", "range", "country", "prominence"]),
            "de": (8, 45, 40, 15, ["rank", "name", "height", "range", "country", "prominence"]),
            "zh": (2, 6, 20, 3, ["rank", "name", "height", "range", "country", "prominence"]),
            "it": (2, 15, 16, 2, ["rank", "name", "height", "range", "country", "prominence"]),
        },
    },
    "earthquakes": {
        "kind": "event",
        "titles": {"en": "Lists of earthquakes", "de": "Liste von Erdbeben",
                   "zh": "地震列表", "nl": "Lijst van aardbevingen"},
        "entities": EARTHQUAKES,
        "langlinks_total": 38,
        "revisions": {"en": "2025-06-01T06:00:00Z", "de": "2025-06-02T06:00:00Z",
                      "zh": "2025-06-03T06:00:00Z", "nl": "2025-06-04T06:00:00Z"},
        "pages": {
            "en": (12, 236, 35, 8, ["date", "name", "magnitude", "fatalities", "location",
                                    "country"]),
            "de": (5, 30, 20, 8, ["date", "name", "magnitude", "fatalities"]),
            "zh": (0, 4, 0, 0, []),
            "nl": (0, 2, 0, 0, []),
        },
    },
    "unclimbed_peaks": {
        "kind": "mountain",
        "titles": {"en": "List of highest unclimbed peaks",
                   "de": "Liste der höchsten unbestiegenen Berge",
                   "nl": "Lijst van hoogste onbeklommen bergen"},
        "entities": UNCLIMBED,
        "langlinks_total": 6,
        "revisions": {"en": "2025-05-05T05:00:00Z", "de": "2025-05-06T05:00:00Z",
                      "nl": "2025-05-07T05:00:00Z"},
        "pages": {
            "en": (3, 22, 24, 4, ["rank", "name", "height", "range", "country", "prominence"]),
            "de": (1, 12, 12, 5, ["rank", "name", "height", "range", "country", "prominence"]),
            "nl": (2, 5, 12, 2, ["rank", "name", "height", "range", "country", "prominence"]),
        },
    },
    "highest_mountains": {
        "kind": "mountain",
        "titles": loc("List of highest mountains on Earth", "Liste der höchsten Berge der Erde",
                      "地球最高山峰列表", "Montagne più alte della Terra",
                      "Lijst van hoogste bergen op aarde"),
        "entities": EIGHT_THOUSANDERS,
        "langlinks_total": 47,
        "revisions": {"en": "2025-06-05T04:00:00Z", "de": "2025-06-06T04:00:00Z",
                      "zh": "2025-06-07T04:00:00Z", "it": "2025-06-08T04:00:00Z",
                      "nl": "2025-06-09T04:00:00Z"},
        "pages": {
            "en": (7, 88, 42, 10, MOUNTAIN_FULL),
            "de": (6, 48, 45, 18, MOUNTAIN_FULL),
            "zh": (4, 8, 30, 5, MOUNTAIN_FULL),
            "it": (3, 22, 20, 3, ["rank", "name", "height", "range", "first_ascent",
                                  "prominence"]),
            "nl": (2, 7, 14, 2, ["rank", "name", "height", "range", "first_ascent",
                                 "prominence"]),
        },
    },
    "lakes_of_titan": {
        "kind": "lake",
        "titles": {"en": "Lakes of Titan", "de": "Seen auf Titan", "zh": "泰坦湖泊",
                   "it": "Laghi di Titano"},
        "entities": TITAN_LAKES,
        "langlinks_total": 18,
        "revisions": {"en": "2025-04-15T03:00:00Z", "de": "2025-04-16T03:00:00Z",
                      "zh": "2025-04-17T03:00:00Z", "it": "2025-04-18T03:00:00Z"},
        "pages": {
            "en": (4, 35, 26, 5, ["name", "area", "depth", "location"]),
            "de": (2, 22, 18, 7, ["name", "area", "depth", "location"]),
            "zh": (6, 70, 24, 4, ["name", "area", "depth", "location"]),
            "it": (2, 12, 12, 1, ["name", "area", "depth", "location"]),
        },
    },
    "lakes_of_europe": {
        "kind": "lake",
        "titles": {"en": "List of largest lakes of Europe",
                   "de": "Liste der größten Seen in Europa",
                   "it": "Laghi più grandi d'Europa",
                   "nl": "Lijst van grootste meren van Europa"},
        "entities": EUROPE_LAKES,
        "langlinks_total": 18,
        "revisions": {"en": "2025-04-20T02:00:00Z", "de": "2025-04-21T02:00:00Z",
                      "it": "2025-04-22T02:00:00Z", "nl": "2025-04-23T02:00:00Z"},
        "pages": {
            "en": (5, 44, 30, 4, ["rank", "name", "area", "depth", "volume", "country"]),
            "de": (2, 21, 24, 9, ["rank", "name", "area", "depth", "volume", "country"]),
            "it": (3, 13, 14, 2, ["rank", "name", "area", "depth", "volume", "country"]),
            "nl": (2, 4, 10, 1, ["rank", "name", "area", "depth", "volume", "country"]),
        },
    },
    "lakes_by_area": {
        "kind": "lake",
        "titles": loc("List of lakes by area", "Liste der größten Seen", "湖泊面积列表",
                      "Laghi per superficie", "Lijst van meren naar oppervlakte"),
        "entities": AREA_LAKES,
        "langlinks_total": 46,
        "revisions": {"en": "2025-05-10T01:00:00Z", "de": "2025-05-11T01:00:00Z",
                      "zh": "2025-05-12T01:00:00Z", "it": "2025-05-13T01:00:00Z",
                      "nl": "2025-05-14T01:00:00Z"},
        "nested_table_lang": "en",
        "pages": {
            "en": (7, 58, 34, 5, LAKE_FULL),
            "de": (3, 28, 30, 11, LAKE_FULL),
            "zh": (5, 4, 15, 4, LAKE_FULL),
            "it": (2, 11, 12, 1, LAKE_FULL),
            "nl": (0, 2, 0, 0, []),
        },
    },
    "eight_thousander_climbers": {
        "kind": "person",
        "titles": loc("List of climbers who have summited all 14 eight-thousanders",
                      "Liste der Bergsteiger, die alle Achttausender bestiegen haben",
                      "完成全部14座八千米高峰的登山者列表",
                      "Alpinisti che hanno scalato tutti i 14 ottomila",
                      "Lijst van klimmers die alle veertien achtduizenders beklommen"),
        "entities": CLIMBERS,
        "langlinks_total": 8,
        "revisions": {"en": "2025-06-01T10:00:00Z", "de": "2025-06-02T10:00:00Z",
                      "zh": "2025-06-03T10:00:00Z", "it": "2025-06-04T10:00:00Z",
                      "nl": "2025-06-05T10:00:00Z"},
        "drop_last_row": ["nl"],
        "pages": {
            "en": (1, 25, 4, 0, ["rank", "name", "period", "nationality"]),
            "de": (1, 12, 4, 0, ["rank", "name", "period", "nationality"]),
            "zh": (1, 8, 5, 0, ["rank", "name", "period", "nationality", "duration"]),
            "it": (1, 9, 6, 0, ["rank", "name", "period", "nationality", "duration", "gender"]),
            "nl": (1, 4, 6, 0, ["rank", "name", "period", "nationality", "new_route",
                                "winter_ascent"]),
        },
    },
}

GEOGRAPHY_FAMILIES = [f for f in FAMILIES if f != "eight_thousander_climbers"]

# Designed per-language corpus totals over the geography families; the
# generator asserts itself against these before writing anything.
GEOGRAPHY_TARGETS = {
    "pages": {"en": 9, "de": 9, "zh": 7, "it": 7, "nl": 7},
    "tables": {"en": 55, "de": 33, "zh": 25, "it": 17, "nl": 10},
    "references": {"en": 851, "de": 286, "zh": 122, "it": 118, "nl": 34},
    "columns_total": {"en": 271, "de": 229, "zh": 133, "it": 110, "nl": 62},
    "columns_incomplete": {"en": 52, "de": 87, "zh": 22, "it": 14, "nl": 9},
}


# ---------------------------------------------------------------------------
# HTML assembly
# ---------------------------------------------------------------------------

def esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def wiki_href(title: str) -> str:
    return "/wiki/" + quote(title.replace(" ", "_"), safe="()'!*")


def anchor(title: str, label: str | None = None, with_title_attr: bool = True) -> str:
    label = label if label is not None else title
    if with_title_attr:
        return f'<a href="{wiki_href(title)}" title="{esc(title)}">{esc(label)}</a>'
    return f'<a href="{wiki_href(title)}">{esc(label)}</a>'


def format_number(magnitude: float, language: str) -> str:
    """Locale rendering of a magnitude (round-trip partner of ``parse_value``)."""
    group, dec = _separators(language)
    if magnitude == int(magnitude):
        body = f"{int(magnitude):,}"
    else:
        body = f"{magnitude:,}"
    return body.translate({ord(","): group, ord("."): dec})


def filler_header(lang: str, index: int) -> str:
    word = FILLER_WORD[lang]
    if lang == "zh":
        return f"{word}{index:02d}"
    return f"{word} {index:02d}"


def filler_value(family: str, attr: str, qid: str) -> int:
    return 50 + crc(f"{family}|{attr}|{qid}") % 9500


def cell_text(family: str, attr: str, entity: dict, lang: str) -> str:
    """Render the content cell for one (attribute, entity, language)."""
    value = entity["data"].get(attr)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, dict) and "__year__" in value:
        # Years never take grouping separators.
        return str(value.get(lang, value["__year__"]))
    if isinstance(value, dict) and "__num__" in value:
        magnitude = value.get(lang, value["__num__"])
        text = format_number(magnitude, lang)
        if lang == "zh" and attr in ZH_SUFFIX:
            text += ZH_SUFFIX[attr]
        return text
    if isinstance(value, dict):
        return value.get(lang, "")
    return str(value)


def build_main_table(family_id: str, family: dict, lang: str, spec) -> str:
    _tables, _refs, n_cols, n_incomplete, content = spec
    entities = list(family["entities"])
    if lang in family.get("drop_last_row", []):
        entities = entities[:-1]
    kind = family["kind"]

    headers: list[str] = []
    for attr in content:
        if attr == "name":
            headers.append(NAME_HEADERS[kind][lang])
        else:
            headers.append(ATTR_HEADERS[attr][lang])
    n_fillers = n_cols - len(content)
    assert n_fillers >= n_incomplete >= 0, (family_id, lang, n_cols, len(content), n_incomplete)
    filler_attrs = [f"metric_{i:02d}" for i in range(1, n_fillers + 1)]
    filler_headers = [filler_header(lang, i) for i in range(1, n_fillers + 1)]
    if family_id == "lakes_of_titan" and lang == "zh" and filler_headers:
        # one deliberately unmapped header: the curated mapping cannot cover
        # every column, and unmapped ones must stay visible downstream
        filler_headers[0] = "数据来源"
    headers.extend(filler_headers)

    # The last n_incomplete filler columns each carry one missing marker.
    incomplete_cols = set(range(n_cols - n_incomplete, n_cols))
    missing_row_for_col = {
        col: (5 * col + 3) % len(entities) for col in incomplete_cols
    }

    rows_html = ["<tr>" + "".join(f"<th>{esc(h)}</th>" for h in headers) + "</tr>"]
    for row_index, entity in enumerate(entities):
        cells: list[str] = []
        for col_index, attr in enumerate(content + filler_attrs):
            if col_index in incomplete_cols and missing_row_for_col[col_index] == row_index:
                marker = MISSING_MARKERS[(crc(f"{family_id}|{lang}|{col_index}")) % len(MISSING_MARKERS)]
                cells.append(f"<td>{esc(marker)}</td>")
                continue
            if attr == "rank":
                cells.append(f"<td>{row_index + 1}</td>")
            elif attr == "name":
                title = entity["titles"].get(lang, entity["titles"]["en"])
                sup = ""
                if row_index == 0:
                    sup = '<sup class="reference"><a href="#cite_note-1">[1]</a></sup>'
                cells.append(f"<td>{anchor(title)}{sup}</td>")
            elif attr.startswith("metric_"):
                cells.append(f"<td>{format_number(filler_value(family_id, attr, entity['qid']), lang)}</td>")
            else:
                cells.append(f"<td>{esc(cell_text(family_id, attr, entity, lang))}</td>")
        rows_html.append("<tr>" + "".join(cells) + "</tr>")

    caption = esc(family["titles"].get(lang, family["titles"]["en"]))
    return ('<table class="wikitable sortable">\n<caption>' + caption + "</caption>\n<tbody>\n"
            + "\n".join(rows_html) + "\n</tbody></table>")


def build_subset_table(family_id: str, family: dict, lang: str, slot: int,
                       nested: bool = False) -> str:
    """Small linked table re-listing the first entities of the family."""
    kind = family["kind"]
    name_header = NAME_HEADERS[kind][lang]
    notes_header = ATTR_HEADERS["notes"][lang]
    e1 = family["entities"][0]
    e2 = family["entities"][1]
    t1 = e1["titles"].get(lang, e1["titles"]["en"])
    t2 = e2["titles"].get(lang, e2["titles"]["en"])
    extra = ""
    if nested:
        extra = ('<table class="wikitable"><tbody><tr><td>inner</td></tr></tbody></table>')
    if slot % 2 == 0:
        # rowspan variant: one entity spanning two rows
        body = (f'<tr><td rowspan="2">{anchor(t1, with_title_attr=lang != "de")}</td>'
                f"<td>a{extra}</td></tr>\n<tr><td>b</td></tr>")
    else:
        body = (f"<tr><td>{anchor(t1)}</td><td>a{extra}</td></tr>\n"
                f"<tr><td>{anchor(t2)}</td><td>b</td></tr>")
    return ('<table class="wikitable">\n<tbody>\n'
            f"<tr><th>{esc(name_header)}</th><th>{esc(notes_header)}</th></tr>\n"
            + body + "\n</tbody></table>")


def build_notes_table(lang: str, family_id: str) -> str:
    red = ('<a href="/w/index.php?title=Draft_note&action=edit&redlink=1" class="new">draft</a>'
           if family_id == "seven_summits" and lang == "en" else "note x")
    return ('<table class="wikitable">\n<tbody>\n'
            "<tr><th>Key</th><th>Value</th></tr>\n"
            f"<tr><td>sign [note 1]</td><td>{red}</td></tr>\n"
            "<tr><td>mark</td><td>plain&nbsp;text</td></tr>\n"
            "</tbody></table>")


def build_stats_table(lang: str) -> str:
    # Two-row header with a spanning group label.
    return ('<table class="wikitable">\n<tbody>\n'
            '<tr><th rowspan="2">Group</th><th colspan="2">Totals</th></tr>\n'
            "<tr><th>A</th><th>B</th></tr>\n"
            "<tr><td>x</td><td>1</td><td>2</td></tr>\n"
            "<tr><td>y</td><td>3</td><td>4</td></tr>\n"
            "<tr><td>z</td><td>5</td><td>6</td></tr>\n"
            "</tbody></table>")


def build_references(count: int) -> str:
    items = "\n".join(
        f'<li id="cite_note-{i}"><span class="reference-text">Source {i}.</span></li>'
        for i in range(1, count + 1)
    )
    return ('<h2><span class="mw-headline" id="References">References</span></h2>\n'
            '<div class="reflist">\n<ol class="references">\n' + items + "\n</ol>\n</div>")


def build_page_html(family_id: str, family: dict, lang: str, spec) -> str:
    n_tables, n_refs, _cols, _inc, content = spec
    title = family["titles"][lang]
    first = family["entities"][0]
    first_title = first["titles"].get(lang, first["titles"]["en"])

    intro = (f"<p>{esc(title)} — overview. See {anchor(first_title)} for details."
             '<sup class="reference" id="cite_ref-1"><a href="#cite_note-1">[1]</a></sup>'
             '<sup class="reference" id="cite_ref-2"><a href="#cite_note-2">[2]</a></sup></p>')

    blocks: list[str] = [intro]
    if crc(f"{family_id}|{lang}|infobox") % 2 == 0:
        blocks.append('<table class="infobox"><tbody><tr><th>Info</th></tr>'
                      "<tr><td>box</td></tr></tbody></table>")

    tables: list[str] = []
    if n_tables > 0:
        main = build_main_table(family_id, family, lang, spec)
        main_pos = family.get("main_pos", {}).get(lang, 0)
        extras = []
        nested_lang = family.get("nested_table_lang")
        for slot in range(n_tables - 1):
            template = slot % 3
            if template == 0:
                extras.append(build_subset_table(
                    family_id, family, lang, slot,
                    nested=(nested_lang == lang and slot == 0)))
            elif template == 1:
                extras.append(build_notes_table(lang, family_id))
            else:
                extras.append(build_stats_table(lang))
        if main_pos == 0:
            tables = [main] + extras
        else:
            tables = extras[:main_pos] + [main] + extras[main_pos:]
    blocks.extend(tables)
    blocks.append(build_references(n_refs))
    blocks.append('<table class="navbox"><tbody><tr><td>nav</td></tr></tbody></table>')

    body = "\n".join(blocks)
    return (f'<!DOCTYPE html>\n<html lang="{lang}"><head><meta charset="utf-8">'
            f"<title>{esc(title)}</title></head>\n<body>\n"
            f'<div class="mw-parser-output">\n{body}\n</div>\n</body></html>\n')


# ---------------------------------------------------------------------------
# Fixture assembly
# ---------------------------------------------------------------------------

def revision_id(family_id: str, lang: str) -> int:
    return 100000 + crc(f"{family_id}:{lang}") % 900000


def build_corpus() -> dict:
    """All fixture artifacts, keyed by relative path."""
    pages: dict[str, dict] = {}
    qids: dict[str, str | None] = {}
    langlinks: dict[str, list[list[str]]] = {}

    for family_id, family in FAMILIES.items():
        titles = family["titles"]
        # Page snapshots
        for lang, spec in family["pages"].items():
            html = build_page_html(family_id, family, lang, spec)
            doc = {
                "language": lang,
                "title": titles[lang],
                "revision_id": revision_id(family_id, lang),
                "revision_timestamp": family["revisions"][lang],
                "fetched_at": FETCHED_AT,
                "html": html,
            }
            pages[f"pages/{lang}/{quote(titles[lang], safe='')}.json"] = doc
        # QIDs for every linked title
        for entity in family["entities"]:
            for lang in family["pages"]:
                title = entity["titles"].get(lang, entity["titles"]["en"])
                qids[f"{lang}:{title}"] = entity["qid"]
        # Langlinks from the English seed
        ours = [[lang, titles[lang]] for lang in LANGS if lang != "en" and lang in titles
                and lang in family["pages"]]
        filler_needed = family["langlinks_total"] - 1 - len(ours)
        assert filler_needed >= 0, family_id
        fillers = [[code, titles["en"]] for code in FILLER_LANGS[:filler_needed]]
        langlinks[f"en:{titles['en']}"] = ours + fillers

    return {"pages": pages, "qids": qids, "langlinks": langlinks}


def build_mapping() -> dict:
    attributes = []
    for canonical, headers in ATTR_HEADERS.items():
        aliases: dict[str, list[str]] = {}
        for lang, display in headers.items():
            aliases.setdefault(lang, [])
            norm = normalize_header(display, lang)
            if norm not in aliases[lang]:
                aliases[lang].append(norm)
        if canonical == "name":
            for kind_headers in NAME_HEADERS.values():
                for lang, display in kind_headers.items():
                    norm = normalize_header(display, lang)
                    if norm not in aliases[lang]:
                        aliases[lang].append(norm)
        attributes.append({"canonical": canonical,
                           "aliases": {lang: sorted(values) for lang, values in aliases.items()}})
    for i in range(1, N_FILLERS + 1):
        attributes.append({
            "canonical": f"metric_{i:02d}",
            "aliases": {lang: [normalize_header(filler_header(lang, i), lang)] for lang in LANGS},
        })
    return {"attributes": attributes}


def build_golden() -> dict:
    per_language: dict[str, dict] = {}
    for lang in LANGS:
        pages = tables = refs = cols = inc = 0
        for family_id in GEOGRAPHY_FAMILIES:
            spec = FAMILIES[family_id]["pages"].get(lang)
            if spec is None:
                continue
            n_tables, n_refs, n_cols, n_inc, _ = spec
            pages += 1
            tables += n_tables
            refs += n_refs
            cols += n_cols
            inc += n_inc
        per_language[lang] = {
            "pages": pages,
            "table_count": tables,
            "reference_total": refs,
            "reference_mean": round(refs / pages, 1) if pages else 0.0,
            "columns_total": cols,
            "columns_complete": cols - inc,
            "columns_incomplete": inc,
            "incompleteness_rate": round(100.0 * inc / cols, 1) if cols else 0.0,
        }
    total = sum(v["columns_total"] for v in per_language.values())
    incomplete = sum(v["columns_incomplete"] for v in per_language.values())
    golden = {
        "scope": "geography manifest (nine list articles), vendored snapshots",
        "per_language": per_language,
        "overall": {
            "columns_total": total,
            "columns_complete": total - incomplete,
            "columns_incomplete": incomplete,
            "complete_rate": round(100.0 * (total - incomplete) / total, 1),
            "incomplete_rate": round(100.0 * incomplete / total, 1),
        },
        "tables_per_family": {
            family_id: {lang: FAMILIES[family_id]["pages"][lang][0]
                        for lang in FAMILIES[family_id]["pages"]}
            for family_id in GEOGRAPHY_FAMILIES
        },
        "references_per_family": {
            family_id: {lang: FAMILIES[family_id]["pages"][lang][1]
                        for lang in FAMILIES[family_id]["pages"]}
            for family_id in GEOGRAPHY_FAMILIES
        },
        "main_table_index": {
            family_id: {lang: FAMILIES[family_id].get("main_pos", {}).get(lang, 0)
                        for lang, spec in FAMILIES[family_id]["pages"].items() if spec[0] > 0}
            for family_id in GEOGRAPHY_FAMILIES
        },
        "language_versions": {FAMILIES[f]["titles"]["en"]: FAMILIES[f]["langlinks_total"]
                              for f in FAMILIES},
    }
    # Sanity: the designed budgets must hit the pinned per-language totals.
    for metric, targets in GEOGRAPHY_TARGETS.items():
        key = {"pages": "pages", "tables": "table_count", "references": "reference_total",
               "columns_total": "columns_total", "columns_incomplete": "columns_incomplete"}[metric]
        for lang, expected in targets.items():
            actual = per_language[lang][key]
            assert actual == expected, (metric, lang, actual, expected)
    return golden


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=str(REPO))
    args = parser.parse_args()
    root = Path(args.repo_root)

    corpus = build_corpus()
    cache_dir = root / "fixtures" / "cache"
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    for rel, doc in corpus["pages"].items():
        path = cache_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True),
                        encoding="utf-8")
    (cache_dir / "qids.json").write_text(
        json.dumps(corpus["qids"], ensure_ascii=False, indent=2, sort_keys=True), encoding="utf-8")
    (cache_dir / "langlinks.json").write_text(
        json.dumps(corpus["langlinks"], ensure_ascii=False, indent=2, sort_keys=True),
        encoding="utf-8")

    mapping_path = root / "mappings" / "geography.json"
    mapping_path.parent.mkdir(parents=True, exist_ok=True)
    mapping_path.write_text(json.dumps(build_mapping(), ensure_ascii=False, indent=2),
                            encoding="utf-8")

    golden_path = root / "fixtures" / "golden" / "geography_stats.json"
    golden_path.parent.mkdir(parents=True, exist_ok=True)
    golden_path.write_text(json.dumps(build_golden(), ensure_ascii=False, indent=2),
                           encoding="utf-8")

    n_pages = len(corpus["pages"])
    print(f"wrote {n_pages} page snapshots, {len(corpus['qids'])} QID entries, "
          f"{len(corpus['langlinks'])} langlink sets")
    print(f"mapping: {mapping_path}")
    print(f"golden: {golden_path}")


if __name__ == "__main__":
    main()
