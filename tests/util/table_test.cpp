// Tests for util/table.h.
#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/json.h"

namespace anole {
namespace {

TEST(Table, PrintsAlignedCells) {
    text_table t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "12345"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("12345"), std::string::npos);
    EXPECT_NE(out.find("+"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RowArityChecked) {
    text_table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), error);
}

TEST(Table, EmptyHeadersRejected) {
    EXPECT_THROW(text_table({}), error);
}

TEST(Table, CsvEscaping) {
    text_table t({"k", "v"});
    t.add_row({"with,comma", "with\"quote"});
    std::ostringstream os;
    t.print_csv(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
    EXPECT_EQ(out.substr(0, 4), "k,v\n");
}

TEST(Table, JsonRowsKeyedByHeader) {
    text_table t({"graph", "messages"});
    t.add_row({"torus(8x8)", "1,234"});
    t.add_row({"cycle(64)", "56"});
    std::ostringstream os;
    t.print_json(os, "E1: demo");
    EXPECT_EQ(os.str(),
              "{\"title\": \"E1: demo\", \"rows\": ["
              "{\"graph\": \"torus(8x8)\", \"messages\": \"1,234\"}, "
              "{\"graph\": \"cycle(64)\", \"messages\": \"56\"}]}\n");
}

TEST(Table, JsonEscapesSpecials) {
    text_table t({"k"});
    t.add_row({"quote\" slash\\ newline\n"});
    std::ostringstream os;
    t.print_json(os, "x");
    EXPECT_NE(os.str().find("quote\\\" slash\\\\ newline\\n"), std::string::npos);
}

TEST(Table, JsonRoundTripsSpecials) {
    const std::string title = "t\x01\"";
    const std::string header = "h\\\x1f";
    const std::string cell = "q\" b\\ n\n c\x02 r\r end";
    text_table t({header});
    t.add_row({cell});
    std::ostringstream os;
    t.print_json(os, title);
    const json_value v = json_parse(os.str());
    EXPECT_EQ(v.at("title").as_string(), title);
    const auto& rows = v.at("rows").as_array();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].at(header).as_string(), cell);
}

TEST(Format, Fixed) {
    EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fmt_fixed(2.0, 0), "2");
}

TEST(Format, CountGroupsThousands) {
    EXPECT_EQ(fmt_count(0), "0");
    EXPECT_EQ(fmt_count(999), "999");
    EXPECT_EQ(fmt_count(1000), "1,000");
    EXPECT_EQ(fmt_count(1234567), "1,234,567");
    EXPECT_EQ(fmt_count(12), "12");
}

TEST(Format, Sci) {
    EXPECT_EQ(fmt_sci(1234567.0, 3), "1.23e+06");
}

TEST(Format, Ratio) {
    EXPECT_EQ(fmt_ratio(2.0), "2.00x");
}

}  // namespace
}  // namespace anole
