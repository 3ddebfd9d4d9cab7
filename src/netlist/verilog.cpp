#include "netlist/verilog.h"

#include <cctype>
#include <sstream>
#include <unordered_set>

#include "obs/obs.h"
#include "util/error.h"

namespace mm::netlist {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error("verilog:" + std::to_string(current_.line) + ": " + msg);
  }

 private:
  void advance() {
    skip_space_and_comments();
    current_ = Token{};
    current_.line = line_;
    if (pos_ >= text_.size()) return;

    const char c = text_[pos_];
    if (c == '\\') {
      // Escaped identifier: backslash to next whitespace.
      ++pos_;
      current_.kind = Token::Kind::kIdent;
      while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        current_.text.push_back(text_[pos_++]);
      }
      if (current_.text.empty()) {
        throw Error("verilog:" + std::to_string(line_) + ": empty escaped identifier");
      }
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      current_.kind = Token::Kind::kIdent;
      while (pos_ < text_.size()) {
        const char d = text_[pos_];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '_' || d == '$') {
          current_.text.push_back(d);
          ++pos_;
        } else {
          break;
        }
      }
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Numbers only appear in unsupported constructs (ranges, constants).
      current_.kind = Token::Kind::kIdent;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '\'')) {
        current_.text.push_back(text_[pos_++]);
      }
      return;
    }
    current_.kind = Token::Kind::kPunct;
    current_.text.push_back(c);
    ++pos_;
  }

  void skip_space_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() &&
               !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ = std::min(pos_ + 2, text_.size());
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  Token current_;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(std::string_view text, const Library& lib) : lex_(text), lib_(lib) {}

  Design run() {
    expect_ident("module");
    const std::string name = expect_any_ident("module name");
    Design design(name, &lib_);

    // Header port list: (a, b, ...) — names collected; directions come from
    // the declarations (ANSI "input a" inside the list also accepted).
    std::vector<std::string> header_ports;
    expect_punct("(");
    bool ansi = false;
    while (!is_punct(")")) {
      if (is_ident("input") || is_ident("output")) {
        ansi = true;
        const bool is_input = lex_.take().text == "input";
        while (true) {
          const std::string port = expect_any_ident("port name");
          declare_port(design, port, is_input);
          if (!eat_punct(",")) break;
          // A direction keyword after the comma starts the next group.
          if (is_ident("input") || is_ident("output")) break;
        }
        continue;
      }
      header_ports.push_back(expect_any_ident("port name"));
      if (!eat_punct(",")) break;
    }
    expect_punct(")");
    expect_punct(";");

    // Body.
    while (!is_ident("endmodule")) {
      if (is_ident("input") || is_ident("output")) {
        const bool is_input = lex_.take().text == "input";
        check_no_range();
        do {
          const std::string port = expect_any_ident("port name");
          declare_port(design, port, is_input);
        } while (eat_punct(","));
        expect_punct(";");
      } else if (is_ident("wire")) {
        lex_.take();
        check_no_range();
        do {
          const std::string wire = expect_any_ident("wire name");
          if (!design.find_net(wire).valid()) design.add_net(wire);
        } while (eat_punct(","));
        expect_punct(";");
      } else if (is_ident("assign")) {
        lex_.fail("assign statements are not supported (structural netlists only)");
      } else if (lex_.peek().kind == Token::Kind::kIdent) {
        parse_instance(design);
      } else {
        lex_.fail("unexpected token '" + lex_.peek().text + "'");
      }
    }
    lex_.take();  // endmodule

    if (!ansi) {
      for (const std::string& p : header_ports) {
        if (!design.find_port(p).valid()) {
          throw Error("verilog: header port '" + p + "' never declared");
        }
      }
    }
    return design;
  }

 private:
  void declare_port(Design& design, const std::string& name, bool is_input) {
    if (design.find_port(name).valid()) return;  // re-declaration tolerated
    const PortId port =
        design.add_port(name, is_input ? PinDir::kInput : PinDir::kOutput);
    NetId net = design.find_net(name);
    if (!net.valid()) net = design.add_net(name);
    design.connect(port, net);
  }

  void check_no_range() {
    if (is_punct("[")) {
      lex_.fail("bus ranges are not supported; bit-blast with escaped names");
    }
  }

  void parse_instance(Design& design) {
    const std::string cell_name = lex_.take().text;
    const LibCellId cell = lib_.find_cell(cell_name);
    if (!cell.valid()) lex_.fail("unknown cell type '" + cell_name + "'");
    const std::string inst_name = expect_any_ident("instance name");
    const InstId inst = design.add_instance(inst_name, cell);

    expect_punct("(");
    if (is_punct(".")) {
      // Named connections.
      while (is_punct(".")) {
        lex_.take();
        const std::string pin = expect_any_ident("pin name");
        expect_punct("(");
        if (!is_punct(")")) {
          const std::string net = expect_any_ident("net name");
          design.connect(inst, pin, net_of(design, net));
        }
        expect_punct(")");
        if (!eat_punct(",")) break;
      }
    } else if (!is_punct(")")) {
      // Ordered connections follow the library cell's pin order.
      const LibCell& lc = lib_.cell(cell);
      uint32_t index = 0;
      do {
        if (index >= lc.pins().size()) {
          lex_.fail("too many connections for cell " + cell_name);
        }
        const std::string net = expect_any_ident("net name");
        design.connect(inst, lc.pins()[index].name, net_of(design, net));
        ++index;
      } while (eat_punct(","));
    }
    expect_punct(")");
    expect_punct(";");
  }

  NetId net_of(Design& design, const std::string& name) {
    NetId net = design.find_net(name);
    if (!net.valid()) net = design.add_net(name);  // implicit wire
    return net;
  }

  // --- token helpers --------------------------------------------------------

  bool is_ident(std::string_view s) const {
    return lex_.peek().kind == Token::Kind::kIdent && lex_.peek().text == s;
  }
  bool is_punct(std::string_view s) const {
    return lex_.peek().kind == Token::Kind::kPunct && lex_.peek().text == s;
  }
  void expect_ident(std::string_view s) {
    if (!is_ident(s)) lex_.fail("expected '" + std::string(s) + "'");
    lex_.take();
  }
  std::string expect_any_ident(const char* what) {
    if (lex_.peek().kind != Token::Kind::kIdent) {
      lex_.fail(std::string("expected ") + what);
    }
    return lex_.take().text;
  }
  void expect_punct(std::string_view s) {
    if (!is_punct(s)) {
      lex_.fail("expected '" + std::string(s) + "', got '" + lex_.peek().text + "'");
    }
    lex_.take();
  }
  bool eat_punct(std::string_view s) {
    if (!is_punct(s)) return false;
    lex_.take();
    return true;
  }

  Lexer lex_;
  const Library& lib_;
};

/// Identifiers needing escaping: anything beyond [A-Za-z_][A-Za-z0-9_$]*.
bool needs_escape(std::string_view name) {
  if (name.empty()) return true;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return true;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '$') {
      return true;
    }
  }
  return false;
}

std::string emit_name(std::string_view name) {
  if (!needs_escape(name)) return std::string(name);
  std::string out = "\\";
  out.append(name);
  out += ' ';
  return out;
}

}  // namespace

Design read_verilog(std::string_view text, const Library& lib) {
  MM_SPAN("netlist/build");
  Design design = Parser(text, lib).run();
  MM_GAUGE_SET("netlist/instances", design.num_instances());
  MM_GAUGE_SET("netlist/nets", design.num_nets());
  return design;
}

std::string write_verilog(const Design& design) {
  std::ostringstream os;
  os << "module " << emit_name(design.name()) << " (";
  for (size_t i = 0; i < design.num_ports(); ++i) {
    if (i) os << ", ";
    os << emit_name(design.port_name(PortId(i)));
  }
  os << ");\n";

  for (size_t i = 0; i < design.num_ports(); ++i) {
    const Port& port = design.port(PortId(i));
    os << "  " << (port.dir == PinDir::kInput ? "input " : "output ")
       << emit_name(design.port_name(PortId(i))) << ";\n";
  }
  for (size_t i = 0; i < design.num_nets(); ++i) {
    const std::string_view name = design.net_name(NetId(i));
    // Port nets are implicitly declared.
    if (design.find_port(name).valid()) continue;
    os << "  wire " << emit_name(name) << ";\n";
  }

  for (size_t i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(InstId(i));
    const LibCell& cell = design.library().cell(inst.cell);
    os << "  " << cell.name() << ' ' << emit_name(design.inst_name(InstId(i)))
       << " (";
    bool first = true;
    for (uint32_t p = 0; p < cell.pins().size(); ++p) {
      const Pin& pin = design.pin(inst.pins[p]);
      if (!pin.net.valid()) continue;
      if (!first) os << ", ";
      os << '.' << cell.pins()[p].name << '('
         << emit_name(design.net_name(pin.net)) << ')';
      first = false;
    }
    os << ");\n";
  }
  os << "endmodule\n";
  return os.str();
}

}  // namespace mm::netlist
