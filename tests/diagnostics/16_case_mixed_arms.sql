SELECT name FROM customer WHERE (CASE WHEN income > 100 THEN 'a' ELSE 2 END) = 2
