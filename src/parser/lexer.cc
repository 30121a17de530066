#include "src/parser/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace sqod {

namespace {

bool IsIdentStart(char c) { return std::islower(static_cast<unsigned char>(c)); }
bool IsVarStart(char c) {
  return std::isupper(static_cast<unsigned char>(c)) || c == '_';
}

// No '@': the optimizer names its generated predicates p@<k> and
// p@<k>_n<class>, so a unit can never name one of them.
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '\'';
}

std::string Where(int line, int col) {
  return "line " + std::to_string(line) + ", column " + std::to_string(col);
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  int line = 1;
  int col = 1;
  size_t i = 0;
  const size_t n = source.size();

  auto push = [&](TokenKind kind, std::string text = "", int64_t num = 0) {
    tokens.push_back(Token{kind, std::move(text), num, line, col});
  };

  while (i < n) {
    char c = source[i];
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++col;
      ++i;
      continue;
    }
    if (c == '%') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    int start_col = col;
    auto advance = [&](size_t k) {
      i += k;
      col += static_cast<int>(k);
    };
    if (IsIdentStart(c) || IsVarStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(source[j])) ++j;
      std::string text(source.substr(i, j - i));
      Token t{IsIdentStart(c) ? TokenKind::kIdent : TokenKind::kVariable,
              std::move(text), 0, line, start_col};
      tokens.push_back(std::move(t));
      advance(j - i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      size_t j = i + 1;
      while (j < n && std::isdigit(static_cast<unsigned char>(source[j]))) ++j;
      int64_t value = 0;
      if (std::from_chars(source.data() + i, source.data() + j, value).ec !=
          std::errc()) {
        return Status::InvalidArgument("integer literal out of range at " +
                                       Where(line, start_col));
      }
      Token t{TokenKind::kInteger, "", value, line, start_col};
      tokens.push_back(std::move(t));
      advance(j - i);
      continue;
    }
    if (c == '"') {
      size_t j = i + 1;
      while (j < n && source[j] != '"' && source[j] != '\n') ++j;
      if (j >= n || source[j] != '"') {
        return Status::InvalidArgument("unterminated string at " +
                             Where(line, start_col));
      }
      Token t{TokenKind::kString, std::string(source.substr(i + 1, j - i - 1)),
              0, line, start_col};
      tokens.push_back(std::move(t));
      advance(j - i + 1);
      continue;
    }
    switch (c) {
      case '(': push(TokenKind::kLParen); advance(1); continue;
      case ')': push(TokenKind::kRParen); advance(1); continue;
      case ',': push(TokenKind::kComma); advance(1); continue;
      case '.': push(TokenKind::kDot); advance(1); continue;
      case ':':
        if (i + 1 < n && source[i + 1] == '-') {
          push(TokenKind::kImplies);
          advance(2);
          continue;
        }
        return Status::InvalidArgument("expected ':-' at " + Where(line, start_col));
      case '?':
        if (i + 1 < n && source[i + 1] == '-') {
          push(TokenKind::kQuery);
          advance(2);
          continue;
        }
        return Status::InvalidArgument("expected '?-' at " + Where(line, start_col));
      case '!':
        if (i + 1 < n && source[i + 1] == '=') {
          push(TokenKind::kNe);
          advance(2);
        } else {
          push(TokenKind::kBang);
          advance(1);
        }
        continue;
      case '<':
        if (i + 1 < n && source[i + 1] == '=') {
          push(TokenKind::kLe);
          advance(2);
        } else {
          push(TokenKind::kLt);
          advance(1);
        }
        continue;
      case '>':
        if (i + 1 < n && source[i + 1] == '=') {
          push(TokenKind::kGe);
          advance(2);
        } else {
          push(TokenKind::kGt);
          advance(1);
        }
        continue;
      case '=':
        push(TokenKind::kEq);
        advance(1);
        continue;
      default:
        return Status::InvalidArgument(std::string("unexpected character '") + c +
                             "' at " + Where(line, start_col));
    }
  }
  push(TokenKind::kEof);
  return tokens;
}

}  // namespace sqod
